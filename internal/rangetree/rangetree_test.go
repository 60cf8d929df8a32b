package rangetree

import (
	"sync"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/simtime"
)

func newTree(span int64) *Tree { return New(span, simtime.DefaultCosts()) }

func TestMarkAndCount(t *testing.T) {
	tr := newTree(64)
	tl := simtime.NewTimeline(0)
	tr.MarkCached(tl, 10, 200) // spans 4 nodes
	if got := tr.CachedCount(tl, 0, 300); got != 190 {
		t.Fatalf("cached = %d, want 190", got)
	}
	if got := tr.CachedCount(tl, 50, 100); got != 50 {
		t.Fatalf("window count = %d, want 50", got)
	}
	if tr.Nodes() < 4 {
		t.Fatalf("expected >= 4 nodes, got %d", tr.Nodes())
	}
}

func TestClearCached(t *testing.T) {
	tr := newTree(64)
	tr.MarkCached(nil, 0, 100)
	tr.ClearCached(nil, 30, 70)
	if got := tr.CachedCount(nil, 0, 100); got != 60 {
		t.Fatalf("cached = %d, want 60", got)
	}
}

func TestNeedsPrefetchMarksRequested(t *testing.T) {
	tr := newTree(64)
	tr.MarkCached(nil, 20, 40)
	runs := tr.NeedsPrefetch(nil, 0, 60)
	if len(runs) != 2 || runs[0] != (bitmap.Run{Lo: 0, Hi: 20}) || runs[1] != (bitmap.Run{Lo: 40, Hi: 60}) {
		t.Fatalf("runs = %v", runs)
	}
	// A second caller over the same window sees everything in flight.
	if again := tr.NeedsPrefetch(nil, 0, 60); len(again) != 0 {
		t.Fatalf("duplicate prefetch not suppressed: %v", again)
	}
	// Completion converts requested to cached.
	tr.MarkCached(nil, 0, 60)
	if got := tr.CachedCount(nil, 0, 60); got != 60 {
		t.Fatalf("cached = %d", got)
	}
}

func TestNeedsPrefetchMergesAcrossNodes(t *testing.T) {
	tr := newTree(64)
	runs := tr.NeedsPrefetch(nil, 0, 256) // 4 nodes, all missing
	if len(runs) != 1 || runs[0] != (bitmap.Run{Lo: 0, Hi: 256}) {
		t.Fatalf("runs not merged across nodes: %v", runs)
	}
}

func TestClearRequested(t *testing.T) {
	tr := newTree(64)
	tr.NeedsPrefetch(nil, 0, 10)
	tr.ClearRequested(nil, 0, 10)
	runs := tr.NeedsPrefetch(nil, 0, 10)
	if len(runs) != 1 || runs[0].Blocks() != 10 {
		t.Fatalf("requested marks not cleared: %v", runs)
	}
}

func TestImportBitmap(t *testing.T) {
	tr := newTree(64)
	tr.MarkCached(nil, 0, 100) // stale belief
	var kernel bitmap.Shared
	kernel.SetRange(0, 50) // kernel truth: only first 50 resident
	var src bitmap.Window
	kernel.CopyWindow(&src, 0, 100)
	tr.ImportBitmap(nil, &src, 0, 100)
	if got := tr.CachedCount(nil, 0, 100); got != 50 {
		t.Fatalf("after import cached = %d, want 50", got)
	}
}

func TestSingleNodeBaseline(t *testing.T) {
	tr := newTree(0) // single-node tree
	tr.MarkCached(nil, 0, 10_000)
	if tr.Nodes() != 1 {
		t.Fatalf("baseline should use one node, got %d", tr.Nodes())
	}
}

func TestDisjointRangesDoNotContend(t *testing.T) {
	tr := newTree(64)
	a := simtime.NewTimeline(0)
	b := simtime.NewTimeline(0)
	// Warm both nodes so node-creation cost doesn't blur the check.
	tr.MarkCached(nil, 0, 1)
	tr.MarkCached(nil, 1000, 1001)
	tr.MarkCached(a, 0, 64)
	tr.MarkCached(b, 1000, 1064)
	if a.Account(simtime.WaitLock) != 0 || b.Account(simtime.WaitLock) != 0 {
		t.Fatalf("disjoint ranges contended: a=%v b=%v",
			a.Account(simtime.WaitLock), b.Account(simtime.WaitLock))
	}
}

func TestSameRangeContends(t *testing.T) {
	tr := newTree(0) // single node: everything collides
	a := simtime.NewTimeline(0)
	tr.MarkCached(a, 0, 1_000_000)
	b := simtime.NewTimeline(0)
	tr.MarkCached(b, 0, 1_000_000)
	if b.Account(simtime.WaitLock) == 0 {
		t.Fatal("same-node writes should contend")
	}
	st := tr.LockStats()
	if st.Writes != 2 {
		t.Fatalf("lock stats writes = %d, want 2", st.Writes)
	}
	if st.WriteWait == 0 {
		t.Fatal("lock stats should record write wait")
	}
}

func TestConcurrentSafety(t *testing.T) {
	tr := newTree(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := simtime.NewTimeline(0)
			base := int64(w * 1000)
			for i := int64(0); i < 100; i++ {
				tr.NeedsPrefetch(tl, base+i, base+i+20)
				tr.MarkCached(tl, base+i, base+i+20)
				tr.CachedCount(tl, base, base+200)
				if i%7 == 0 {
					tr.ClearCached(tl, base, base+10)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestEmptyRangeOps(t *testing.T) {
	tr := newTree(64)
	tr.MarkCached(nil, 10, 10)
	if got := tr.CachedCount(nil, 10, 10); got != 0 {
		t.Fatalf("empty range count = %d", got)
	}
	if runs := tr.NeedsPrefetch(nil, 5, 5); len(runs) != 0 {
		t.Fatalf("empty range runs = %v", runs)
	}
}
