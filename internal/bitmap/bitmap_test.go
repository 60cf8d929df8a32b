package bitmap

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	b := New(0)
	if b.Test(5) {
		t.Fatal("empty bitmap has bit set")
	}
	if !b.Set(5) {
		t.Fatal("Set on clear bit should report true")
	}
	if b.Set(5) {
		t.Fatal("Set on set bit should report false")
	}
	if !b.Test(5) {
		t.Fatal("bit 5 should be set")
	}
	if b.Count() != 1 {
		t.Fatalf("Count = %d, want 1", b.Count())
	}
	if !b.Clear(5) {
		t.Fatal("Clear on set bit should report true")
	}
	if b.Clear(5) {
		t.Fatal("Clear on clear bit should report false")
	}
	if b.Count() != 0 {
		t.Fatalf("Count = %d, want 0", b.Count())
	}
}

func TestNegativeIndices(t *testing.T) {
	b := New(10)
	if b.Set(-1) || b.Clear(-1) || b.Test(-1) {
		t.Fatal("negative indices should be inert")
	}
}

func TestGrowth(t *testing.T) {
	b := New(0)
	b.Set(1000)
	if !b.Test(1000) {
		t.Fatal("bit 1000 lost after growth")
	}
	if b.Len() < 1001 {
		t.Fatalf("Len = %d, want >= 1001", b.Len())
	}
	if b.Test(999) || b.Test(1001) {
		t.Fatal("neighbors should be clear")
	}
}

func TestSetRangeAcrossWords(t *testing.T) {
	b := New(0)
	if got := b.SetRange(60, 70); got != 10 {
		t.Fatalf("SetRange flipped %d, want 10", got)
	}
	for i := int64(60); i < 70; i++ {
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Test(59) || b.Test(70) {
		t.Fatal("range boundaries leaked")
	}
	// Overlapping set flips only the new bits.
	if got := b.SetRange(65, 75); got != 5 {
		t.Fatalf("overlapping SetRange flipped %d, want 5", got)
	}
	if b.Count() != 15 {
		t.Fatalf("Count = %d, want 15", b.Count())
	}
}

func TestClearRange(t *testing.T) {
	b := New(0)
	b.SetRange(0, 200)
	if got := b.ClearRange(64, 128); got != 64 {
		t.Fatalf("ClearRange flipped %d, want 64", got)
	}
	if b.Test(64) || b.Test(127) {
		t.Fatal("cleared bits still set")
	}
	if !b.Test(63) || !b.Test(128) {
		t.Fatal("boundary bits lost")
	}
	if b.Count() != 136 {
		t.Fatalf("Count = %d, want 136", b.Count())
	}
	// Clearing beyond the bitmap is clamped.
	if got := b.ClearRange(190, 10_000); got != 10 {
		t.Fatalf("clamped ClearRange flipped %d, want 10", got)
	}
}

func TestCountRange(t *testing.T) {
	b := New(0)
	b.SetRange(10, 20)
	b.SetRange(100, 110)
	if got := b.CountRange(0, 1000); got != 20 {
		t.Fatalf("CountRange full = %d, want 20", got)
	}
	if got := b.CountRange(15, 105); got != 10 {
		t.Fatalf("CountRange partial = %d, want 10", got)
	}
	if got := b.CountRange(20, 100); got != 0 {
		t.Fatalf("CountRange gap = %d, want 0", got)
	}
}

func TestMissingRuns(t *testing.T) {
	b := New(0)
	b.SetRange(4, 8)
	b.SetRange(12, 14)
	got := b.MissingRuns(0, 20)
	want := []Run{{0, 4}, {8, 12}, {14, 20}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MissingRuns = %v, want %v", got, want)
	}
	if runs := b.MissingRuns(4, 8); runs != nil {
		t.Fatalf("fully present window returned runs %v", runs)
	}
	if runs := b.MissingRuns(8, 8); runs != nil {
		t.Fatalf("empty window returned runs %v", runs)
	}
}

func TestPresentRuns(t *testing.T) {
	b := New(0)
	b.SetRange(4, 8)
	b.SetRange(12, 14)
	got := b.PresentRuns(0, 20)
	want := []Run{{4, 8}, {12, 14}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PresentRuns = %v, want %v", got, want)
	}
}

func TestNextClear(t *testing.T) {
	b := New(0)
	b.SetRange(0, 10)
	if got := b.NextClear(0, 100); got != 10 {
		t.Fatalf("NextClear = %d, want 10", got)
	}
	if got := b.NextClear(0, 5); got != 5 {
		t.Fatalf("NextClear clamped = %d, want 5", got)
	}
}

func TestCopyRange(t *testing.T) {
	src := New(0)
	src.SetRange(100, 200)
	dst := New(0)
	dst.SetRange(0, 10)    // outside the window: must survive
	dst.SetRange(100, 120) // inside: must be replaced by src's view
	src.ClearRange(100, 110)
	words := src.CopyRange(dst, 64, 192)
	if words <= 0 {
		t.Fatal("no words copied")
	}
	for i := int64(0); i < 10; i++ {
		if !dst.Test(i) {
			t.Fatalf("bit %d outside window lost", i)
		}
	}
	for i := int64(100); i < 110; i++ {
		if dst.Test(i) {
			t.Fatalf("bit %d should reflect src clear", i)
		}
	}
	for i := int64(110); i < 192; i++ {
		if !dst.Test(i) {
			t.Fatalf("bit %d should reflect src set", i)
		}
	}
}

func TestShrink(t *testing.T) {
	b := New(0)
	b.SetRange(0, 300)
	b.Shrink(100)
	if b.Count() != 100 {
		t.Fatalf("Count after shrink = %d, want 100", b.Count())
	}
	if b.Len() > 128 {
		t.Fatalf("Len after shrink = %d, want <= 128", b.Len())
	}
	if b.Test(100) {
		t.Fatal("bit beyond shrink point still set")
	}
}

// Property: Count always equals the number of bits that Test reports set.
func TestCountConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b := New(0)
		for _, op := range ops {
			i := int64(op % 512)
			switch op % 3 {
			case 0:
				b.Set(i)
			case 1:
				b.Clear(i)
			case 2:
				b.SetRange(i, i+int64(op%67))
			}
		}
		var n int64
		for i := int64(0); i < b.Len(); i++ {
			if b.Test(i) {
				n++
			}
		}
		return n == b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MissingRuns and PresentRuns partition the window exactly.
func TestRunsPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		b := New(0)
		for i := 0; i < 30; i++ {
			lo := rng.Int63n(256)
			b.SetRange(lo, lo+rng.Int63n(20))
		}
		lo, hi := rng.Int63n(128), int64(0)
		hi = lo + rng.Int63n(200) + 1
		missing := b.MissingRuns(lo, hi)
		present := b.PresentRuns(lo, hi)
		var covered int64
		for _, r := range missing {
			covered += r.Blocks()
			for i := r.Lo; i < r.Hi; i++ {
				if b.Test(i) {
					t.Fatalf("missing run %v contains set bit %d", r, i)
				}
			}
		}
		for _, r := range present {
			covered += r.Blocks()
			for i := r.Lo; i < r.Hi; i++ {
				if !b.Test(i) {
					t.Fatalf("present run %v contains clear bit %d", r, i)
				}
			}
		}
		if covered != hi-lo {
			t.Fatalf("runs cover %d of %d blocks", covered, hi-lo)
		}
	}
}

// Property: SetRange then ClearRange of the same window restores count.
func TestSetClearRoundTripProperty(t *testing.T) {
	f := func(lo uint8, span uint8) bool {
		b := New(0)
		b.SetRange(5, 50)
		before := b.Count()
		l, h := int64(lo), int64(lo)+int64(span)
		added := b.SetRange(l, h)
		cleared := b.ClearRange(l, h)
		restored := b.SetRange(5, 50)
		_ = added
		_ = cleared
		return b.Count() == before && restored == b.CountRange(5, 50)-before+restored-(b.Count()-before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSeekUnionAgainstBits holds the two-bitmap seeks to a per-bit scan,
// over bitmaps of unequal length and windows that start mid-word, end
// mid-word and run past both.
func TestSeekUnionAgainstBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		a, b := New(0), New(0)
		for i, n := 0, rng.Intn(12); i < n; i++ {
			lo := rng.Int63n(400)
			a.SetRange(lo, lo+rng.Int63n(70))
			lo = rng.Int63n(250)
			b.SetRange(lo, lo+rng.Int63n(70))
		}
		if round%2 == 1 {
			a, b = b, a
		}
		for q := 0; q < 50; q++ {
			lo := rng.Int63n(520) - 10
			hi := lo + rng.Int63n(200)
			clear, set := hi, hi
			for i := hi - 1; i >= max(lo, 0); i-- {
				if a.Test(i) || b.Test(i) {
					set = i
				} else {
					clear = i
				}
			}
			if got := a.NextClearInBoth(b, lo, hi); got != clear {
				t.Fatalf("NextClearInBoth(%d, %d) = %d, want %d", lo, hi, got, clear)
			}
			if got := a.NextSetInEither(b, lo, hi); got != set {
				t.Fatalf("NextSetInEither(%d, %d) = %d, want %d", lo, hi, got, set)
			}
		}
	}
}
