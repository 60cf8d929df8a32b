package predictor

import (
	"runtime"
	"testing"
)

// TestMithrilSkipsSequential: adjacent-sequential pairs belong to the
// counter arm — mining them would burn table capacity re-learning what
// extrapolation gets for free, so a pure stream must leave the
// association table empty.
func TestMithrilSkipsSequential(t *testing.T) {
	m := NewMithril(DefaultMithrilConfig())
	for i := int64(0); i < 128; i++ {
		m.Observe(i, 1, nil)
	}
	if m.Mined() == 0 {
		t.Fatal("lazy mining never ran")
	}
	if n := m.TableLen(); n != 0 {
		t.Fatalf("sequential stream mined %d associations, want 0", n)
	}
}

// TestMithrilLearnsDominantSuccessor: a recurring head→successor chain
// must be learned and predicted, while a one-off co-occurrence below the
// dominant count stays suppressed (it is interleaving noise that would
// only book shadow pages nobody reads).
func TestMithrilLearnsDominantSuccessor(t *testing.T) {
	m := NewMithril(DefaultMithrilConfig())
	for i := 0; i < 32; i++ {
		m.Observe(10, 1, nil)
		m.Observe(500, 1, nil)
	}
	// One-off noise after the head, then enough traffic to mine it.
	m.Observe(10, 1, nil)
	m.Observe(777, 1, nil)
	for i := 0; i < 16; i++ {
		m.Observe(10, 1, nil)
		m.Observe(500, 1, nil)
	}
	cands := m.Observe(10, 1, nil)
	has := func(lo int64) bool {
		for _, c := range cands {
			if c.Lo == lo {
				return true
			}
		}
		return false
	}
	if !has(500) {
		t.Fatalf("head 10 must predict its recurring successor 500, got %+v", cands)
	}
	if has(777) {
		t.Fatalf("one-off successor 777 must stay below the dominant cut, got %+v", cands)
	}
}

// TestMithrilCapacityEviction: the association table must never exceed
// MaxAssoc live heads however many distinct patterns flow through —
// the FIFO rotation evicts the oldest insertion.
func TestMithrilCapacityEviction(t *testing.T) {
	cfg := DefaultMithrilConfig()
	cfg.MaxAssoc = 4
	m := NewMithril(cfg)
	for i := int64(0); i < 200; i++ {
		head := 1000 * (i + 1)
		m.Observe(head, 1, nil)
		m.Observe(head+50, 1, nil)
		if n := m.TableLen(); n > 4 {
			t.Fatalf("table grew to %d entries, cap is 4", n)
		}
	}
	if m.TableLen() == 0 {
		t.Fatal("nothing was ever mined")
	}
}

// TestMithrilColdFillAllocs: a fresh miner filling its table carves the
// entries from a few doubling slabs instead of allocating one per new
// head: 8, 16, …, 256 and the last 8 of 512 are seven slabs.
func TestMithrilColdFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	m := NewMithril(DefaultMithrilConfig())
	dst := make([]Candidate, 0, 64)
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	// Accesses 1000 blocks apart: no pair is a forward continuation within
	// a one-block head's window, so every access becomes a new head.
	for i := int64(0); m.TableLen() < m.cfg.MaxAssoc; i++ {
		if i > 4*int64(m.cfg.MaxAssoc) {
			t.Fatalf("%d accesses filled %d of %d entries", i, m.TableLen(), m.cfg.MaxAssoc)
		}
		dst = m.Observe(1_000_000+1000*i, 1, dst[:0])
	}
	runtime.ReadMemStats(&b)
	n := b.Mallocs - a.Mallocs
	t.Logf("%d allocations filled %d entries", n, m.TableLen())
	if n > 8 {
		t.Errorf("filling %d association entries took %d allocations, budget 8", m.cfg.MaxAssoc, n)
	}
}
