package crosslib

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

func TestDropCachesResetsBelief(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 16<<20)
	f, _ := rt.Open(tl, "big")
	buf := make([]byte, 1<<20)
	f.ReadAt(tl, buf, 0)
	if f.sf.tree.CachedCount(nil, 0, 256) == 0 {
		t.Fatal("tree should believe pages cached")
	}
	v.Cache().DropAll(tl)
	rt.DropCaches(tl)
	if got := f.sf.tree.CachedCount(nil, 0, 4096); got != 0 {
		t.Fatalf("belief not reset: %d", got)
	}
	// Reads after the drop still work and repopulate.
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchDroppedWhenHelpersSaturated(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 256<<20)

	// Book every helper far into the future.
	for i := 0; i < helperWorkers; i++ {
		rt.workers.Run(0, func(wtl *simtime.Timeline) {
			wtl.Advance(simtime.Second)
		})
	}

	f, _ := rt.Open(tl, "big")
	buf := make([]byte, 16384)
	for off := int64(0); off < 4<<20; off += 16384 {
		f.ReadAt(tl, buf, off)
	}
	st := rt.Stats()
	if st.DroppedPrefetch == 0 {
		t.Fatal("saturated helpers should drop prefetch intents")
	}
	// Dropped intents must release their range-tree reservations so a
	// later retry is possible.
	if runs := f.sf.tree.NeedsPrefetch(nil, 2048, 2060); len(runs) == 0 {
		t.Fatal("dropped intent left requested marks behind")
	}
}

func TestMmapScanWindowShrinksOnRandom(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 256<<20)
	f, _ := rt.Open(tl, "big")
	m := rt.Mmap(tl, f)
	// Single-page loads all over the file, twelve scans' worth: the
	// residency behind the frontier stays sparse, so every scan halves the
	// window, down to its floor.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12*mmapScanOps; i++ {
		m.Load(tl, rng.Int63n((256<<20)/4096)*4096, 4096, nil)
	}
	rt.mu.Lock()
	window := m.window
	rt.mu.Unlock()
	if window != 8 {
		t.Fatalf("random mmap loads should shrink the window to its floor of 8 blocks, got %d", window)
	}
}

func TestMemoryBudgetPagesRespected(t *testing.T) {
	v := newKernel(100_000) // 400MB system cache
	opt := CrossPredictOpt.Options()
	opt.MemoryBudgetPages = 1000 // 4MB process budget
	opt.RangeTreeSpan = 256      // 1MB eviction granularity
	opt.InactiveAge = 500 * simtime.Microsecond
	opt.EvictCheckOps = 8
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 256<<20)
	f, _ := rt.Open(tl, "big")
	buf := make([]byte, 16384)
	for off := int64(0); off < 32<<20; off += 16384 {
		f.ReadAt(tl, buf, off)
	}
	// Though the system cache could hold the whole 32MB stream, the
	// library's aggressive eviction works against its own 4MB budget:
	// cold ranges behind the stream get DONTNEEDed, so residency stays
	// near the budget instead of ballooning to the full stream.
	if used := v.Cache().Used(); used > 4000 {
		t.Fatalf("process budget ignored: %d pages resident", used)
	}
	if rt.Stats().EvictedPages == 0 {
		t.Fatal("budget-driven eviction never ran")
	}
}
