package bitmap

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFromWordsCopies is the aliasing regression: FromWords used to share
// the caller's slice, so mutating either side after construction silently
// corrupted the other (until a grow decoupled them). It must copy.
func TestFromWordsCopies(t *testing.T) {
	words := []uint64{0b1011, 1 << 63}
	b := FromWords(words)
	words[0] = 0 // caller keeps writing its slice
	if b.Count() != 4 || !b.Test(0) || !b.Test(1) || !b.Test(3) {
		t.Fatal("FromWords aliased the caller's words: external write leaked in")
	}
	b.Set(5)
	if words[0]&(1<<5) != 0 {
		t.Fatal("FromWords aliased the caller's words: bitmap write leaked out")
	}
}

// TestFromWordsShared pins the explicit opt-in aliasing behaviour.
func TestFromWordsShared(t *testing.T) {
	words := []uint64{0b1}
	b := FromWordsShared(words)
	words[0] |= 0b10
	if !b.Test(1) {
		t.Fatal("FromWordsShared must alias the caller's slice")
	}
}

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

// TestRunItersMatchReference drives random bitmaps through both the plain
// Bitmap and Shared run queries and compares against the naive scan,
// including windows beyond the bitmap's length.
func TestRunItersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		b := New(0)
		var s Shared
		for i := 0; i < 20; i++ {
			lo := rng.Int63n(300)
			hi := lo + rng.Int63n(80)
			if rng.Intn(3) == 0 {
				b.ClearRange(lo, hi)
				s.ClearRange(lo, hi)
			} else {
				b.SetRange(lo, hi)
				s.SetRange(lo, hi)
			}
		}
		lo := rng.Int63n(200) - 10
		hi := lo + rng.Int63n(400)
		for _, want := range []bool{false, true} {
			ref := naiveRuns(b.Test, lo, hi, want)
			var got, gotS []Run
			if want {
				got, gotS = b.PresentRuns(lo, hi), s.PresentRuns(lo, hi)
			} else {
				got, gotS = b.MissingRuns(lo, hi), s.MissingRuns(lo, hi)
			}
			if !equalRuns(got, ref) {
				t.Fatalf("Bitmap runs(want=%v, [%d,%d)) = %v, reference %v", want, lo, hi, got, ref)
			}
			if !equalRuns(gotS, ref) {
				t.Fatalf("Shared runs(want=%v, [%d,%d)) = %v, reference %v", want, lo, hi, gotS, ref)
			}
		}
		if b.Count() != s.Count() {
			t.Fatalf("Count diverged: Bitmap %d, Shared %d", b.Count(), s.Count())
		}
		w := rng.Int63n(400)
		if g, want := s.NextClear(w, w+100), b.NextClear(w, w+100); g != want {
			t.Fatalf("NextClear(%d) = %d, Bitmap says %d", w, g, want)
		}
		if g, want := s.CountRange(lo, hi), b.CountRange(lo, hi); g != want {
			t.Fatalf("CountRange = %d, Bitmap says %d", g, want)
		}
	}
}

// TestCopyWindow checks the selective export: exactly the window's bits,
// storage sized by the window and not by its offset, and reuse on refill.
func TestCopyWindow(t *testing.T) {
	var s Shared
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

// TestSharedShrink mirrors the Bitmap shrink semantics.
func TestSharedShrink(t *testing.T) {
	var s Shared
	s.SetRange(0, 200)
	s.Shrink(100)
	if s.Test(150) || s.Len() > 128 {
		t.Fatalf("Shrink left bits beyond the truncation point (len %d)", s.Len())
	}
	if s.Count() != 100 {
		t.Fatalf("Count after shrink = %d, want 100", s.Count())
	}
}

// TestSharedConcurrentReaders runs lock-free readers against a single
// serialized writer under -race: queries must never tear a word, counts
// must stay within the written envelope, the iterator must keep its
// contract (ascending, non-empty, non-overlapping runs that may abut), the
// Append form must hand out strictly separated runs — what fetchRuns and
// prefetchRuns turn into device commands — and the final state must be
// exact.
func TestSharedConcurrentReaders(t *testing.T) {
	var s Shared
	const span = 4096
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var torn atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var runs []Run
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c := s.Count(); c < 0 || c > span {
					torn.Add(1)
				}
				if c := s.CountRange(0, span); c < 0 || c > span {
					torn.Add(1)
				}
				it := s.MissingIter(0, span)
				prev := int64(0)
				for {
					run, ok := it.Next()
					if !ok {
						break
					}
					if run.Lo >= run.Hi || run.Lo < prev {
						torn.Add(1)
					}
					prev = run.Hi
				}
				runs = s.AppendMissingRuns(runs[:0], 0, span)
				for i, run := range runs {
					if run.Lo >= run.Hi || run.Hi > span || (i > 0 && run.Lo <= runs[i-1].Hi) {
						torn.Add(1)
					}
				}
				_ = s.Test(seed % span)
				_ = s.NextClear(0, span)
			}
		}(int64(r + 1))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		lo := rng.Int63n(span)
		hi := lo + 1 + rng.Int63n(128)
		if hi > span {
			hi = span
		}
		if i%2 == 0 {
			s.SetRange(lo, hi)
		} else {
			s.ClearRange(lo, hi)
		}
	}
	close(stop)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("readers observed %d inconsistent results", torn.Load())
	}
	var n int64
	for i := int64(0); i < s.Len(); i++ {
		if s.Test(i) {
			n++
		}
	}
	if n != s.Count() {
		t.Fatalf("final Count %d != %d set bits", s.Count(), n)
	}
}

// TestRunIterZeroAlloc pins the allocation-free guarantee of the iterator
// and the Append variants with preallocated capacity.
func TestRunIterZeroAlloc(t *testing.T) {
	var s Shared
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
	}); n != 0 {
		t.Fatalf("Shared run iteration allocates %v per run, want 0", n)
	}
	b := New(4096)
	for i := int64(0); i < 4096; i += 3 {
		b.SetRange(i, i+2)
	}
	if n := testing.AllocsPerRun(100, func() {
		scratch = b.AppendPresentRuns(scratch[:0], 0, 4096)
	}); n != 0 {
		t.Fatalf("Bitmap AppendPresentRuns allocates %v per run, want 0", n)
	}
}

// TestRunIterAbutsAfterFlip pins the iterator contract deterministically:
// when the bit that ended a run flips before the next call, the next run
// starts where the last one ended — and the Append form never merges into
// runs the caller had already collected.
func TestRunIterAbutsAfterFlip(t *testing.T) {
	var s Shared
	s.SetRange(10, 20)
	it := s.MissingIter(0, 64)
	first, ok := it.Next()
	if !ok || first != (Run{0, 10}) {
		t.Fatalf("first run = %v %v, want {0 10}", first, ok)
	}
	s.ClearRange(10, 20) // the writer clears the bit that ended the run
	second, ok := it.Next()
	if !ok || second != (Run{10, 64}) {
		t.Fatalf("second run = %v %v, want the abutting {10 64}", second, ok)
	}

	prior := []Run{{0, 8}}
	s.SetRange(0, 8)
	got := s.AppendMissingRuns(prior, 8, 64)
	if len(got) != 2 || got[0] != (Run{0, 8}) || got[1] != (Run{8, 64}) {
		t.Fatalf("AppendMissingRuns merged into the caller's earlier run: %v", got)
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
	var s Shared
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
