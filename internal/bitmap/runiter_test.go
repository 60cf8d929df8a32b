package bitmap

import (
	"math/rand"
	"reflect"
	"testing"
)

// naiveRuns is the bit-at-a-time reference the word-level iterator must
// match exactly.
func naiveRuns(test func(int64) bool, lo, hi int64, want bool) []Run {
	if lo < 0 {
		lo = 0
	}
	var runs []Run
	runStart := int64(-1)
	for i := lo; i < hi; i++ {
		if test(i) == want {
			if runStart < 0 {
				runStart = i
			}
		} else if runStart >= 0 {
			runs = append(runs, Run{runStart, i})
			runStart = -1
		}
	}
	if runStart >= 0 {
		runs = append(runs, Run{runStart, hi})
	}
	return runs
}

func equalRuns(a, b []Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunItersMatchReference drives random bitmaps through the run
// queries and compares them against the naive scan, including windows
// beyond the bitmap's length.
func TestRunItersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		b := New(0)
		for i := 0; i < 20; i++ {
			lo := rng.Int63n(300)
			hi := lo + rng.Int63n(80)
			if rng.Intn(3) == 0 {
				b.ClearRange(lo, hi)
			} else {
				b.SetRange(lo, hi)
			}
		}
		lo := rng.Int63n(200) - 10
		hi := lo + rng.Int63n(400)
		for _, want := range []bool{false, true} {
			ref := naiveRuns(b.Test, lo, hi, want)
			got := b.MissingRuns(lo, hi)
			if want {
				got = b.PresentRuns(lo, hi)
			}
			if !equalRuns(got, ref) {
				t.Fatalf("runs(want=%v, [%d,%d)) = %v, reference %v", want, lo, hi, got, ref)
			}
		}
		w := rng.Int63n(400)
		next := w
		for next < w+100 && b.Test(next) {
			next++
		}
		if g := b.NextClear(w, w+100); g != next {
			t.Fatalf("NextClear(%d) = %d, reference %d", w, g, next)
		}
	}
}

// TestCopyWindow checks the selective export: exactly the window's bits,
// storage sized by the window and not by its offset, and reuse on refill.
func TestCopyWindow(t *testing.T) {
	var s Bitmap
	const far = 1 << 30 // a window deep into a large file
	s.SetRange(far+10, far+200)
	s.SetRange(0, 64)
	var w Window
	if words := s.CopyWindow(&w, far+70, far+300); words != 4 {
		t.Fatalf("copied %d words, want 4", words)
	}
	if w.Lo() != far+70 || w.Hi() != far+300 || w.Count() != 130 {
		t.Fatalf("window [%d,%d) count %d, want [%d,%d) count 130", w.Lo(), w.Hi(), w.Count(), far+70, far+300)
	}
	for i := int64(far); i < far+320; i++ {
		if got, want := w.Test(i), i >= far+70 && i < far+200; got != want {
			t.Fatalf("bit %d = %v, want %v", i-far, got, want)
		}
	}
	if w.Test(5) || w.CountRange(0, far+100) != 30 || w.CountRange(far+190, far+400) != 10 {
		t.Fatalf("bits outside the window count: %d, %d", w.CountRange(0, far+100), w.CountRange(far+190, far+400))
	}
	if runs := w.AppendPresentRuns(nil, 0, far+320); len(runs) != 1 || runs[0] != (Run{far + 70, far + 200}) {
		t.Fatalf("present runs = %v", runs)
	}
	if n := testing.AllocsPerRun(100, func() { s.CopyWindow(&w, far+64, far+256) }); n != 0 {
		t.Errorf("refilling a window: %v allocs/run, want 0", n)
	}
	s.CopyWindow(&w, 10, 10)
	if w.Count() != 0 || w.Test(10) {
		t.Fatal("empty window holds bits")
	}
}

// TestRunIterZeroAlloc pins the allocation-free guarantee of the iterator
// and the Append variants with preallocated capacity.
func TestRunIterZeroAlloc(t *testing.T) {
	var s Bitmap
	for i := int64(0); i < 4096; i += 3 {
		s.SetRange(i, i+2)
	}
	scratch := make([]Run, 0, 2048)
	if n := testing.AllocsPerRun(100, func() {
		it := s.MissingIter(0, 4096)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		scratch = s.AppendMissingRuns(scratch[:0], 0, 4096)
		scratch = s.AppendPresentRuns(scratch[:0], 0, 4096)
	}); n != 0 {
		t.Fatalf("run iteration allocates %v per run, want 0", n)
	}
}

// TestWindowReuseAudit is the pooled-object audit for Window (CROSS-LIB
// pools the readahead_info export snapshots; CopyWindow is the reset): a
// window with every field dirtied by a previous, larger fill must, after
// the next CopyWindow, be indistinguishable from a fresh window filled the
// same way — including the degenerate fills.
func TestWindowReuseAudit(t *testing.T) {
	if n := reflect.TypeOf(Window{}).NumField(); n != 4 {
		t.Fatalf("Window has %d fields, this audit dirties 4: add the new one", n)
	}
	var s Bitmap
	s.SetRange(3, 90)
	s.SetRange(130, 131)
	s.SetRange(700, 1500)
	for _, r := range []Run{{0, 64}, {5, 70}, {64, 65}, {100, 900}, {-20, 40}, {50, 50}, {90, 10}, {4000, 4100}} {
		used := Window{lo: 7, hi: 1 << 40, base: 12345, words: make([]uint64, 64)}
		for i := range used.words {
			used.words[i] = ^uint64(0)
		}
		var fresh Window
		if a, b := s.CopyWindow(&fresh, r.Lo, r.Hi), s.CopyWindow(&used, r.Lo, r.Hi); a != b {
			t.Fatalf("[%d,%d): copied %d words into a fresh window, %d into a used one", r.Lo, r.Hi, a, b)
		}
		if fresh.Lo() != used.Lo() || fresh.Hi() != used.Hi() || fresh.Count() != used.Count() {
			t.Fatalf("[%d,%d): fresh [%d,%d) count %d, used [%d,%d) count %d", r.Lo, r.Hi,
				fresh.Lo(), fresh.Hi(), fresh.Count(), used.Lo(), used.Hi(), used.Count())
		}
		for i := int64(-70); i < 4200; i++ {
			if fresh.Test(i) != used.Test(i) {
				t.Fatalf("[%d,%d): bit %d is %v in a fresh window, %v in a used one", r.Lo, r.Hi, i, fresh.Test(i), used.Test(i))
			}
		}
		if a, b := fresh.AppendPresentRuns(nil, -70, 4200), used.AppendPresentRuns(nil, -70, 4200); !reflect.DeepEqual(a, b) {
			t.Fatalf("[%d,%d): present runs %v in a fresh window, %v in a used one", r.Lo, r.Hi, a, b)
		}
		if a, b := fresh.CountRange(-70, 4200), used.CountRange(-70, 4200); a != b {
			t.Fatalf("[%d,%d): CountRange %d in a fresh window, %d in a used one", r.Lo, r.Hi, a, b)
		}
	}
}
