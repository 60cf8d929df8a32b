package vfs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// emptyPool swaps a pool's constructor for one returning nil and drains
// what earlier tests left in it, so that every later Get goes through the
// constructor the caller installs next. A Get reaches only its own P's
// private slot, so an object put on another P would survive the drain;
// two collections empty every slot first (the first moves them to the
// victim cache, the second drops that).
func emptyPool(p *sync.Pool) {
	p.New = func() any { return nil }
	runtime.GC()
	runtime.GC()
	for p.Get() != nil {
	}
}

// TestReadScratchPoolAudit is the pooled-object audit for readScratch: the
// pool hands the read, readahead_info and ring paths a scratch with every
// field dirtied, and they must behave exactly as with fresh ones — no
// field of a previous use (the lookup's Present vector, its counters, the
// Tenant hint, the missing-runs slice) may reach the next.
func TestReadScratchPoolAudit(t *testing.T) {
	if n := reflect.TypeOf(readScratch{}).NumField(); n != 2 {
		t.Fatalf("readScratch has %d fields, this audit dirties 2: add the new one", n)
	}
	if n := reflect.TypeOf(pagecache.LookupResult{}).NumField(); n != 5 {
		t.Fatalf("LookupResult has %d fields, this audit dirties 5: add the new one", n)
	}
	dirty := func() any {
		sc := &readScratch{runs: make([]bitmap.Run, 40)}
		for i := range sc.runs {
			sc.runs[i] = bitmap.Run{Lo: int64(i) * 7, Hi: int64(i)*7 + 3}
		}
		sc.res.Present = make([]bool, 600)
		for i := range sc.res.Present {
			sc.res.Present[i] = true
		}
		sc.res.PresentCount, sc.res.ReadyAt, sc.res.MarkerHit, sc.res.Tenant = 599, 1<<60, true, 9
		return sc
	}
	fresh := readScratchPool.New
	defer func() { readScratchPool.New = fresh }()

	run := func(newScratch func() any) string {
		// Every scratch below comes from newScratch (or is one of those,
		// used once more).
		emptyPool(&readScratchPool)
		readScratchPool.New = newScratch

		v := newTestKernel(t, 4096)
		score := telemetry.NewScorecard()
		v.Cache().SetScorecard(score) // the Tenant hint's one consumer
		tl := simtime.NewTimeline(0)
		if _, err := v.FS().CreateSynthetic(tl, "f", 8<<20); err != nil {
			t.Fatal(err)
		}
		f, err := v.Open(tl, "f")
		if err != nil {
			t.Fatal(err)
		}
		var out string
		buf := make([]byte, 256<<10)
		for _, off := range []int64{0, 64 << 10, 1 << 20, 64 << 10, 3 << 20} {
			n, err := f.ReadAt(tl, buf[:96<<10], off)
			out += fmt.Sprint("read ", n, err, tl.Now(), "; ")
		}
		var w bitmap.Window
		info := f.ReadaheadInfo(tl, CacheInfoRequest{Offset: 4 << 20, Bytes: 1 << 20}, &w)
		out += fmt.Sprintf("info %+v %d; ", info, w.Count())
		info = f.ReadaheadInfo(tl, CacheInfoRequest{Offset: 6 << 20, Bytes: 128 << 10}, &w)
		out += fmt.Sprintf("info %+v %d; ", info, w.Count())
		for _, c := range v.RingEnter(tl, 3, []RingSQE{
			{F: f, Op: RingRead, Off: 5 << 20, Buf: buf},
			{F: f, Op: RingPrefetch, Off: 7 << 20, Len: 512 << 10},
			{F: f, Op: RingRead, Off: 0, Buf: buf[:8192]},
		}, nil) {
			out += fmt.Sprintf("cqe %+v; ", c)
		}
		cards, err := json.Marshal(score.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return out + fmt.Sprintf("%+v hits=%d misses=%d now=%d %s", v.Stack().Stats(), f.FileCache().Hits(), f.FileCache().Misses(), tl.Now(), cards)
	}
	if want, got := run(fresh), run(dirty); want != got {
		t.Errorf("a dirtied readScratch leaks into its next use\nfresh %s\ndirty %s", want, got)
	}
}

// ringRounds drives every way a ring enter settles — a faulted read, then
// cold and warm reads, a prefetch, a prefetch whose deadline has already
// passed, a second tenant — and reports everything observable about the outcome.
func ringRounds(t *testing.T) string {
	v, rec := newRingKernel(t, 4096)
	tl := simtime.NewTimeline(0)
	f := coldFile(t, v, tl, "f", 4<<20)
	buf := make([]byte, 64<<10)
	var out string
	enter := func(tenant int, sqes ...RingSQE) {
		for _, c := range v.RingEnter(tl, tenant, sqes, nil) {
			out += fmt.Sprintf("cqe %+v; ", c)
		}
	}
	v.Stack().SetFaultInjector(allReads())
	enter(0, RingSQE{F: f, Op: RingRead, Off: 0, Buf: buf, User: 1},
		RingSQE{F: f, Op: RingRead, Off: 1 << 20, Buf: buf[:8192], User: 2})
	v.Stack().SetFaultInjector(nil)
	enter(0, RingSQE{F: f, Op: RingRead, Off: 0, Buf: buf, User: 3},
		RingSQE{F: f, Op: RingPrefetch, Off: 2 << 20, Len: 256 << 10, User: 4},
		RingSQE{F: f, Op: RingRead, Off: 0, Buf: buf[:4096], User: 5})
	enter(1, RingSQE{F: f, Op: RingPrefetch, Off: 3 << 20, Len: 256 << 10, User: 6, Deadline: tl.Now().Add(-1)},
		RingSQE{F: f, Op: RingRead, Off: 2 << 20, Buf: buf, User: 8})
	enter(0, RingSQE{F: f, Op: RingRead, Off: 1 << 20, Buf: buf, User: 9})
	return out + fmt.Sprintf("%+v %+v hits=%d misses=%d sqes=%d cqes=%d now=%d", v.Stack().Stats(), v.RingStats(),
		f.FileCache().Hits(), f.FileCache().Misses(), rec.CounterValue(telemetry.CtrRingSQESubmitted),
		rec.CounterValue(telemetry.CtrRingCQECompleted), tl.Now())
}

// TestRingFramePoolAudit is the pooled-object audit for what a ring enter
// recycles: the pool hands RingEnter a frame whose pending entries carry a
// previous enter's completion time and error and whose result buffer is
// full of stale tags, and stageRuns a chunk tag with every field dirtied —
// and the enters must settle exactly as with fresh ones. Then the other
// direction: whatever the rounds left in the pools keeps no file, no wait
// group, no pending entry and no tag reachable.
func TestRingFramePoolAudit(t *testing.T) {
	for typ, want := range map[reflect.Type]int{
		reflect.TypeOf(ringFrame{}):   3,
		reflect.TypeOf(ringPending{}): 3,
		reflect.TypeOf(ringChunk{}):   7,
	} {
		if n := typ.NumField(); n != want {
			t.Fatalf("%v has %d fields, this audit dirties %d: add the new one", typ, n, want)
		}
	}
	freshFrame, freshChunk := ringFramePool.New, ringChunkPool.New
	defer func() { ringFramePool.New, ringChunkPool.New = freshFrame, freshChunk }()

	// What a stale pointer would reach: none of it may be touched.
	var stalePend ringPending
	var staleWG sync.WaitGroup
	staleChunk := &ringChunk{pend: &stalePend, wg: &staleWG, lo: 99, blocks: 99}
	dirtyFrame := func() any {
		fr := &ringFrame{pends: make([]ringPending, 7), results: make([]blockdev.LaneResult, 9)}
		for i := range fr.pends {
			fr.pends[i].done, fr.pends[i].err = 1<<60, ErrShed
		}
		for i := range fr.results {
			fr.results[i] = blockdev.LaneResult{Req: blockdev.LaneRequest{Tag: staleChunk}, Done: 1 << 60, Err: ErrShed}
		}
		return fr
	}
	dirtyChunk := func() any {
		return &ringChunk{pend: &stalePend, wg: &staleWG, f: &File{}, lo: 1 << 40, blocks: 1 << 20,
			tenant: 9, prefetch: true}
	}

	emptyPool(&ringFramePool)
	emptyPool(&ringChunkPool)
	ringFramePool.New, ringChunkPool.New = dirtyFrame, dirtyChunk
	got := ringRounds(t)
	emptyPool(&ringFramePool)
	emptyPool(&ringChunkPool)
	ringFramePool.New, ringChunkPool.New = freshFrame, freshChunk
	if want := ringRounds(t); got != want {
		t.Errorf("a dirtied ring frame or chunk tag leaks into its next use\nfresh %s\ndirty %s", want, got)
	}
	if stalePend.done != 0 || stalePend.err != nil || *staleChunk != (ringChunk{pend: &stalePend, wg: &staleWG, lo: 99, blocks: 99}) {
		t.Errorf("an enter settled through a stale pointer: pend %+v chunk %+v", &stalePend, staleChunk)
	}
	staleWG.Wait() // a stale Add would hang here, a stale Done has panicked already

	// The pools now hold what the fresh rounds recycled.
	ringFramePool.New, ringChunkPool.New = func() any { return nil }, func() any { return nil }
	for x := ringChunkPool.Get(); x != nil; x = ringChunkPool.Get() {
		if c := x.(*ringChunk); *c != (ringChunk{}) {
			t.Errorf("a recycled chunk tag still carries state: %+v", c)
		}
	}
	for x := ringFramePool.Get(); x != nil; x = ringFramePool.Get() {
		fr := x.(*ringFrame)
		for i, r := range fr.results[:cap(fr.results)] {
			if r.Req.Tag != nil || r.Err != nil || r.Pieces != nil {
				t.Errorf("a recycled frame's result %d still carries %+v", i, r)
			}
		}
	}
}
