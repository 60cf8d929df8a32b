package crosslib

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Drop-behind (DESIGN.md §24): a sole stream over a file the budget cannot
// hold gives back its wake one unit at a time, and the library stops
// populating that file with coverage prefetch. One test per condition.

// dropBehindCache is the cache of these tests, 8 MB; streamWindow is the
// saturated counter's prefetch window; streamIO is a stream's read.
const (
	dropBehindCache = 2048
	streamWindow    = 4 << 6
	streamIO        = 64 << 10
)

// newDropBehindRuntime is CrossPredictOpt over a dropBehindCache-page
// cache, with a recorder installed.
func newDropBehindRuntime() (*Runtime, *telemetry.Recorder) {
	v := newKernel(dropBehindCache)
	rec := telemetry.NewRecorder(1 << 16)
	v.SetTelemetry(rec)
	v.Cache().SetTelemetry(rec)
	rt := New(v, CrossPredictOpt.Options())
	rt.SetTelemetry(rec)
	return rt, rec
}

// stream reads blocks [lo, hi) of f front to back, streamIO at a time, and
// calls each with the read's first block and its virtual latency.
func stream(t *testing.T, f *File, tl *simtime.Timeline, lo, hi int64, each func(blk int64, lat simtime.Duration)) {
	t.Helper()
	buf := make([]byte, streamIO)
	for off := lo * 4096; off < hi*4096; off += streamIO {
		start := tl.Now()
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			t.Fatal(err)
		}
		if each != nil {
			each(off/4096, tl.Now().Sub(start))
		}
	}
}

// droppedBehind reports the dropped-behind events and pages so far.
func droppedBehind(rec *telemetry.Recorder) (events, pages int64) {
	return rec.OutcomeTotals(telemetry.OutcomeDroppedBehind)
}

// TestDropBehindSoleStream is seq_cold_scan's shape: a sole sequential
// reader over a file twice the budget. Once it has read past what the
// optimistic open and its first windows brought in, the file holds no more
// than the prefetch window ahead of the reader and two units behind it (what
// the previous pass left at the end of the file aside: no read has passed
// it since), and every read of the second pass that waits for the device at
// all waits the same virtual time — none for a reclaim the stream left to
// the budget loop.
func TestDropBehindSoleStream(t *testing.T) {
	rt, rec := newDropBehindRuntime()
	tl := simtime.NewTimeline(0)
	const (
		blocks = 2 * dropBehindCache
		tail   = blocks - 2*dropBehindUnit
		bound  = streamWindow + 2*dropBehindUnit
	)
	f := openSynthetic(t, rt, tl, "f", blocks*4096)
	stream(t, f, tl, 0, blocks, func(blk int64, _ simtime.Duration) {
		if got := residentPages(f, 0, tail); blk >= 2*openPrefetchBytes/4096 && got > bound {
			t.Fatalf("first pass, read at block %d: %d pages resident, want at most %d", blk, got, bound)
		}
	})
	lats := map[simtime.Duration]int{}
	stream(t, f, tl, 0, blocks, func(blk int64, lat simtime.Duration) {
		if got := residentPages(f, 0, tail); got > bound {
			t.Fatalf("second pass, read at block %d: %d pages resident, want at most %d", blk, got, bound)
		}
		if blk >= 2*streamWindow && blk < tail {
			lats[lat]++
		}
	})
	if len(lats) != 1 {
		t.Errorf("second pass: reads took %d different virtual times, want one: %v", len(lats), lats)
	}
	events, pages := droppedBehind(rec)
	if events == 0 || rt.Stats().EvictedPages < pages {
		t.Fatalf("%d units dropped behind (%d pages), %d evicted in all", events, pages, rt.Stats().EvictedPages)
	}
	if got := rec.CounterValue(telemetry.CtrLibDroppedBehindPages); got != pages {
		t.Errorf("dropped-behind counter %d, events carry %d pages", got, pages)
	}
}

// TestDropBehindNeedsFileOverBudget: the same reader over a file the budget
// can hold drops nothing — a second pass reads the first one's pages from
// cache. Without the condition warm_point_read's warm-up pass dropped what
// it warmed.
func TestDropBehindNeedsFileOverBudget(t *testing.T) {
	rt, rec := newDropBehindRuntime()
	tl := simtime.NewTimeline(0)
	const blocks = dropBehindCache / 2
	f := openSynthetic(t, rt, tl, "f", blocks*4096)
	stream(t, f, tl, 0, blocks, nil)
	stream(t, f, tl, 0, blocks, nil)
	if events, _ := droppedBehind(rec); events != 0 {
		t.Errorf("%d units dropped behind a stream over a file within the budget", events)
	}
	if got := residentPages(f, 0, blocks); got != blocks {
		t.Errorf("%d of %d pages resident after two passes", got, blocks)
	}
}

// TestDropBehindNeedsSoleDescriptor: with a second descriptor open on the
// file, nothing is dropped — its reader may be about to read the wake.
// Without the condition shared_scan_2t un-halted and its p50 went 3.2 →
// 7.5 µs.
func TestDropBehindNeedsSoleDescriptor(t *testing.T) {
	rt, rec := newDropBehindRuntime()
	tl := simtime.NewTimeline(0)
	const blocks = 2 * dropBehindCache
	f := openSynthetic(t, rt, tl, "f", blocks*4096)
	if _, err := rt.Open(tl, "f"); err != nil {
		t.Fatal(err)
	}
	stream(t, f, tl, 0, blocks, nil)
	if events, _ := droppedBehind(rec); events != 0 {
		t.Errorf("%d units dropped behind a stream over a shared file", events)
	}
}

// TestDropBehindStopsCoverage: a random reader of a file a stream has
// dropped behind gets no coverage prefetch — the library has found it cannot
// hold that file. A random reader of a file as large that no stream has
// dropped behind still gets it: fig5's premise, that random readers converge
// on residency while memory lasts.
func TestDropBehindStopsCoverage(t *testing.T) {
	rt, rec := newDropBehindRuntime()
	tl := simtime.NewTimeline(0)
	const blocks = 2 * dropBehindCache
	streamed := openSynthetic(t, rt, tl, "streamed", blocks*4096)
	other := openSynthetic(t, rt, tl, "other", blocks*4096)
	stream(t, streamed, tl, 0, blocks, nil)
	if events, _ := droppedBehind(rec); events == 0 {
		t.Fatal("setup: the stream dropped nothing behind it")
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 16<<10)
	coverage := func(f *File) int64 {
		before, _, _ := rec.OriginTotals(telemetry.OriginCoverage)
		for i := 0; i < 64; i++ {
			if _, err := f.ReadAt(tl, buf, rng.Int63n(blocks/4)*4*4096); err != nil {
				t.Fatal(err)
			}
		}
		after, _, _ := rec.OriginTotals(telemetry.OriginCoverage)
		return after - before
	}
	if got := coverage(streamed); got != 0 {
		t.Errorf("coverage prefetched %d pages of the file dropped behind", got)
	}
	if got := coverage(other); got == 0 {
		t.Error("coverage prefetched nothing for a random reader of a file never streamed")
	}
}

// TestDropBehindSharedFileRace: four goroutines share one File, each on a
// timeline of its own, and are released together to give back the wake
// behind the same read — the call ReadAt makes once the read is marked —
// chunk after chunk of a stream. The watermark's compare-and-swap lets one
// of them drop each unit: none goes twice. (Four readers of the same chunk
// through ReadAt reach the call one after another more often than not;
// calling it directly is what makes them collide.)
func TestDropBehindSharedFileRace(t *testing.T) {
	rt, rec := newDropBehindRuntime()
	tl := simtime.NewTimeline(0)
	const (
		blocks = 2 * dropBehindCache
		warm   = openPrefetchBytes / 4096
	)
	f := openSynthetic(t, rt, tl, "f", blocks*4096)
	stream(t, f, tl, 0, warm, nil) // the descriptor streams
	var tls [4]*simtime.Timeline
	for g := range tls {
		tls[g] = simtime.NewTimeline(tl.Now())
	}
	for lo := int64(warm); lo < blocks; lo += streamIO / 4096 {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, gtl := range tls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f.dropBehind(gtl, lo)
			}()
		}
		close(start)
		wg.Wait()
	}
	snap := rec.Snapshot()
	if snap.EventsDropped != 0 {
		t.Fatalf("the trace ring dropped %d events", snap.EventsDropped)
	}
	seen := map[int64]bool{}
	for _, e := range snap.Events {
		if e.Outcome != telemetry.OutcomeDroppedBehind {
			continue
		}
		if seen[e.Lo] {
			t.Errorf("unit [%d, %d) dropped twice", e.Lo, e.Hi)
		}
		seen[e.Lo] = true
	}
	if len(seen) == 0 {
		t.Fatal("no unit dropped behind: the test raced on nothing")
	}
}
