package predictor

import "testing"

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
