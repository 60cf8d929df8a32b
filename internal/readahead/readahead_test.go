package readahead

import "testing"

const fileBlocks = int64(1 << 20)

func TestInitialSequentialRead(t *testing.T) {
	var s State
	cfg := DefaultConfig()
	a := s.OnDemand(cfg, 0, 4, fileBlocks, false, true)
	if a.Pages() == 0 {
		t.Fatal("initial sequential miss should trigger readahead")
	}
	if a.Lo != 0 {
		t.Fatalf("window starts at %d, want 0", a.Lo)
	}
	if a.Async {
		t.Fatal("initial readahead is synchronous")
	}
	if a.MarkerAt < 0 {
		t.Fatal("initial readahead should place a marker")
	}
	if a.Pages() > cfg.MaxPages {
		t.Fatalf("window %d exceeds cap %d", a.Pages(), cfg.MaxPages)
	}
}

func TestWindowDoublesOnMarkerHit(t *testing.T) {
	var s State
	cfg := DefaultConfig()
	a := s.OnDemand(cfg, 0, 4, fileBlocks, false, true)
	first := a.Pages()
	// Reader reaches the marker page.
	a2 := s.OnDemand(cfg, a.MarkerAt, 4, fileBlocks, true, false)
	if !a2.Async {
		t.Fatal("marker-triggered readahead should be async")
	}
	if a2.Pages() <= first && first < cfg.MaxPages {
		t.Fatalf("window should grow: %d -> %d", first, a2.Pages())
	}
	if a2.Lo != a.Hi {
		t.Fatalf("ramp should continue from previous window end: lo=%d, want %d", a2.Lo, a.Hi)
	}
}

func TestWindowCapped(t *testing.T) {
	var s State
	cfg := DefaultConfig()
	a := s.OnDemand(cfg, 0, 4, fileBlocks, false, true)
	for i := 0; i < 10; i++ {
		a = s.OnDemand(cfg, a.MarkerAt, 4, fileBlocks, true, false)
		if a.Pages() > cfg.MaxPages {
			t.Fatalf("window %d exceeds cap %d", a.Pages(), cfg.MaxPages)
		}
	}
	if a.Pages() != cfg.MaxPages {
		t.Fatalf("steady-state window = %d, want cap %d", a.Pages(), cfg.MaxPages)
	}
}

func TestRandomAccessNoReadahead(t *testing.T) {
	var s State
	cfg := DefaultConfig()
	s.OnDemand(cfg, 0, 4, fileBlocks, false, true)
	a := s.OnDemand(cfg, 50_000, 4, fileBlocks, false, true)
	if a.Pages() != 0 {
		t.Fatalf("random jump should not read ahead, got %v", a)
	}
	// Window collapsed back to initial size.
	if s.WindowPages() > initPages*2 {
		t.Fatalf("window did not shrink: %d", s.WindowPages())
	}
}

func TestModeRandomDisables(t *testing.T) {
	var s State
	s.SetMode(ModeRandom)
	cfg := DefaultConfig()
	a := s.OnDemand(cfg, 0, 4, fileBlocks, false, true)
	if a.Pages() != 0 {
		t.Fatalf("ModeRandom should disable readahead, got %v", a)
	}
}

func TestModeSequentialDoublesCap(t *testing.T) {
	var s State
	s.SetMode(ModeSequential)
	cfg := DefaultConfig()
	a := s.OnDemand(cfg, 0, 4, fileBlocks, false, true)
	for i := 0; i < 10; i++ {
		a = s.OnDemand(cfg, a.MarkerAt, 4, fileBlocks, true, false)
	}
	if a.Pages() != cfg.MaxPages*2 {
		t.Fatalf("sequential-hint cap = %d, want %d", a.Pages(), cfg.MaxPages*2)
	}
}

func TestClampToFileEnd(t *testing.T) {
	var s State
	cfg := DefaultConfig()
	small := int64(6)
	a := s.OnDemand(cfg, 0, 4, small, false, true)
	if a.Hi > small {
		t.Fatalf("readahead beyond EOF: %v", a)
	}
}

func TestActionAtEOFIsEmpty(t *testing.T) {
	var s State
	cfg := DefaultConfig()
	s.OnDemand(cfg, 0, 4, 8, false, true)
	a := s.OnDemand(cfg, 7, 4, 8, true, false)
	if a.Pages() != 0 {
		t.Fatalf("marker hit at EOF should yield empty action, got %v", a)
	}
	if a.MarkerAt != -1 {
		t.Fatalf("empty action should carry no marker, got %d", a.MarkerAt)
	}
}

func TestCachedSequentialNoAction(t *testing.T) {
	var s State
	cfg := DefaultConfig()
	a := s.OnDemand(cfg, 0, 4, fileBlocks, false, true)
	// Next sequential read is fully cached and not at the marker.
	a2 := s.OnDemand(cfg, 4, 2, fileBlocks, false, false)
	if a2.Pages() != 0 {
		t.Fatalf("cached sequential read should not re-trigger, got %v", a2)
	}
	_ = a
}

func TestSequenceOfMarkerlessSequentialMisses(t *testing.T) {
	// A reader that outruns readahead (misses without marker) keeps
	// getting sync windows.
	var s State
	cfg := DefaultConfig()
	pos := int64(0)
	for i := 0; i < 5; i++ {
		a := s.OnDemand(cfg, pos, 4, fileBlocks, false, true)
		if a.Pages() == 0 {
			t.Fatalf("sequential miss %d got no window", i)
		}
		pos += 4
	}
}

func TestSequentialOverlapClassification(t *testing.T) {
	// Regression test for the sequentiality check's off-by-one: a read is
	// sequential only when it extends strictly past prevEnd. An exact
	// re-read of the previous range (its pages since evicted, so missed is
	// true) used to satisfy `off+req > prevEnd-1` and restart a sync
	// readahead window for data the reader already consumed.
	cases := []struct {
		name       string
		off, req   int64
		wantWindow bool
	}{
		{"exact re-read", 0, 4, false},
		{"re-read last page", 3, 1, false},
		{"overlap extending", 2, 4, true},
		{"adjacent", 4, 4, true},
		{"backward within previous", 0, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s State
			cfg := DefaultConfig()
			s.OnDemand(cfg, 0, 4, fileBlocks, false, true) // prime: prevEnd = 4
			a := s.OnDemand(cfg, tc.off, tc.req, fileBlocks, false, true)
			if got := a.Pages() > 0; got != tc.wantWindow {
				t.Fatalf("off=%d req=%d: window=%v (action %+v), want window=%v",
					tc.off, tc.req, got, a, tc.wantWindow)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	if ModeNormal.String() != "normal" || ModeSequential.String() != "sequential" || ModeRandom.String() != "random" {
		t.Fatal("mode strings wrong")
	}
}

func TestNextSizeGrowth(t *testing.T) {
	if got := nextSize(2, 512); got != 8 {
		t.Fatalf("small windows quadruple: got %d", got)
	}
	if got := nextSize(256, 512); got != 512 {
		t.Fatalf("large windows double: got %d", got)
	}
	if got := nextSize(512, 512); got != 512 {
		t.Fatalf("capped: got %d", got)
	}
}
