package vfs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

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
		// Swap the constructor, then empty the pool of whatever earlier
		// tests left there, so every scratch below comes from newScratch
		// (or is one of those, used once more).
		readScratchPool.New = func() any { return nil }
		for readScratchPool.Get() != nil {
		}
		readScratchPool.New = newScratch

		v := newTestKernel(t, 4096)
		score := telemetry.NewScorecard(telemetry.ScorecardConfig{})
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
		info = f.ReadaheadInfo(tl, CacheInfoRequest{Ranges: []Range{{Offset: 0, Bytes: 64 << 10}, {Offset: 6 << 20, Bytes: 128 << 10}}}, &w)
		out += fmt.Sprintf("info %+v %d; ", info, w.Count())
		for _, c := range v.RingEnter(tl, 3, []RingSQE{
			{F: f, Op: RingRead, Off: 5 << 20, Buf: buf},
			{F: f, Op: RingPrefetch, Off: 7 << 20, Len: 512 << 10},
			{F: f, Op: RingRead, Off: 0, Buf: buf[:8192]},
		}) {
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
