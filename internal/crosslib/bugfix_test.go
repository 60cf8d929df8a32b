package crosslib

import (
	"errors"
	"testing"

	"repro/internal/simtime"
	"repro/internal/vfs"
)

// TestEvictPassCreditsActualFrees is the regression test for the pass-1
// eviction accounting: the pass must credit what fadvise(DONTNEED)
// actually freed, not the file's pre-call residency. A truncated file
// whose stale pages survive the DONTNEED (they sit beyond the new EOF)
// used to be credited in full, ending the pass with the budget still
// exhausted and EvictedPages overstating reality.
func TestEvictPassCreditsActualFrees(t *testing.T) {
	v := newKernel(10_000)
	opt := CrossPredictOpt.Options()
	opt.MemoryBudgetPages = 550
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)

	readAll := func(name string, bytes int64) *File {
		v.FS().CreateSynthetic(tl, name, bytes)
		f, err := rt.Open(tl, name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16384)
		for off := int64(0); off < bytes; off += int64(len(buf)) {
			f.ReadAt(tl, buf, off)
		}
		return f
	}

	// File A: 256 pages resident, then truncated to 64 blocks. The 192
	// pages beyond the new EOF survive fadvise(DONTNEED, 0, 0), which
	// only spans [0, Blocks()).
	fa := readAll("a", 256*4096)
	fa.Kernel().Inode().Truncate(tl, 64*4096)
	// File B: 256 pages resident, fully evictable.
	readAll("b", 256*4096)

	if got := rt.Stats().EvictedPages; got != 0 {
		t.Fatalf("setup evicted %d pages, want 0", got)
	}
	usedBefore := v.Cache().Used()
	// Budget 550, used 512: target = 550*evictRefillFrac - 38 = 83 pages.
	// Evicting A frees only 64, so the pass must continue into B.
	wtl := simtime.NewTimeline(tl.Now().Add(10 * opt.InactiveAge))
	rt.evictPass(wtl, wtl.Now())

	freed := usedBefore - v.Cache().Used()
	if freed <= 64 {
		t.Fatalf("pass stopped after the truncated file: freed %d pages", freed)
	}
	if got := rt.Stats().EvictedPages; got != freed {
		t.Fatalf("EvictedPages = %d, but residency dropped by %d", got, freed)
	}
}

// TestCloseReleasesState is the regression test for the descriptor leak:
// without File.Close, every Open leaked one kernel descriptor and one
// sharedFile entry for the life of the runtime.
func TestCloseReleasesState(t *testing.T) {
	v := newKernel(100_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "churn", 16<<20)

	buf := make([]byte, 16384)
	for i := 0; i < 200; i++ {
		f, err := rt.Open(tl, "churn")
		if err != nil {
			t.Fatal(err)
		}
		f.ReadAt(tl, buf, int64(i)*16384)
		if err := f.Close(tl); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.OpenFiles(); got != 0 {
		t.Fatalf("%d kernel descriptors leaked after 200 open/close cycles", got)
	}
	if got := rt.SharedFiles(); got != 0 {
		t.Fatalf("%d sharedFile entries leaked", got)
	}
	if v.SyscallCount(vfs.SysClose) == 0 {
		t.Fatal("close syscalls not charged")
	}
}

// TestCloseSharedDescriptors covers the subtle ordering: the first opener
// donates its kernel descriptor to the shared per-inode state for
// background work, so it must stay open until the last descriptor of the
// inode closes — whichever File that is.
func TestCloseSharedDescriptors(t *testing.T) {
	v := newKernel(100_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "shared", 16<<20)

	f1, _ := rt.Open(tl, "shared")
	f2, _ := rt.Open(tl, "shared")
	if rt.SharedFiles() != 1 {
		t.Fatalf("SharedFiles = %d, want 1", rt.SharedFiles())
	}

	// Owner (donor of sf.kf) closes first: shared state and the borrowed
	// kernel descriptor must survive for f2's background prefetch.
	f1.Close(tl)
	if rt.SharedFiles() != 1 {
		t.Fatal("shared state dropped while a descriptor is still open")
	}
	buf := make([]byte, 16384)
	for off := int64(0); off < 4<<20; off += 16384 {
		f2.ReadAt(tl, buf, off)
	}
	if rt.Stats().PrefetchCalls == 0 {
		t.Fatal("surviving descriptor could not prefetch after donor closed")
	}

	f2.Close(tl)
	if rt.SharedFiles() != 0 || v.OpenFiles() != 0 {
		t.Fatalf("after last close: shared=%d open=%d, want 0/0",
			rt.SharedFiles(), v.OpenFiles())
	}

	// Double close is a no-op.
	f2.Close(tl)
	f1.Close(tl)
	if v.OpenFiles() != 0 {
		t.Fatalf("double close unbalanced the open count: %d", v.OpenFiles())
	}

	// Disabled runtime descriptors close through the plain kernel path.
	rtOff := New(v, Options{})
	f3, _ := rtOff.Open(tl, "shared")
	f3.Close(tl)
	if v.OpenFiles() != 0 {
		t.Fatalf("disabled-runtime close leaked: %d", v.OpenFiles())
	}
}

// TestReverseScanHitsPrefetchedPages checks end-to-end that a reverse
// scan is effectively prefetched: once the predictor locks on, nearly
// every read must land on resident pages. (The sharp pre-fix regression
// tests for the backward window placement live in internal/predictor;
// here the large prefetch windows keep even a misplaced window mostly
// effective, so this asserts the behavioral envelope.)
func TestReverseScanHitsPrefetchedPages(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "rev", 8<<20)
	f, _ := rt.Open(tl, "rev")

	buf := make([]byte, 4096)
	reads := 0
	for off := int64(8<<20) - 4096; off >= 4<<20; off -= 4096 {
		f.ReadAt(tl, buf, off)
		reads++
	}
	if rt.Stats().PrefetchedPages == 0 {
		t.Fatal("reverse scan should prefetch")
	}
	misses := v.Cache().Stats().Misses
	if misses > 32 {
		t.Fatalf("reverse scan missed %d of %d reads; prefetch windows are "+
			"not covering the next access", misses, reads)
	}
}

// TestShortReadMarksOnlyWhatWasRead is the regression test for belief bits
// past EOF: a read into a buffer that reaches beyond the end of the file
// used to mark every block the buffer could have held as cached, so that
// once the file grew the library believed blocks nobody had read resident
// and elided the prefetch of them (DESIGN.md §24's dangerous direction).
// Both read paths, ReadAt and the ring's read completion, mark what was
// read.
func TestShortReadMarksOnlyWhatWasRead(t *testing.T) {
	const bs = 4096
	const size = 10*bs + 100 // 11 blocks, the last one partial
	for _, path := range []string{"ReadAt", "ring"} {
		t.Run(path, func(t *testing.T) {
			v := newKernel(100_000)
			rt := NewForApproach(v, CrossPredictOpt)
			tl := simtime.NewTimeline(0)
			v.FS().CreateSynthetic(tl, "f", size)
			f, err := rt.Open(tl, "f")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64<<10) // 16 blocks from block 8: 13 beyond EOF
			var n int64
			if path == "ReadAt" {
				got, err := f.ReadAt(tl, buf, 8*bs)
				if err != nil {
					t.Fatal(err)
				}
				n = int64(got)
			} else {
				ring := rt.NewRing(1, 8)
				if err := ring.PrepRead(f, buf, 8*bs, 1); err != nil {
					t.Fatal(err)
				}
				ring.Submit(tl)
				cqes := ring.Reap(tl, 1)
				if len(cqes) != 1 || cqes[0].Err != nil {
					t.Fatalf("cqes = %+v", cqes)
				}
				n = cqes[0].N
			}
			if n != size-8*bs {
				t.Fatalf("read %d bytes, want %d", n, size-8*bs)
			}
			if got := f.sf.tree.CachedCount(nil, 8, 11); got != 3 {
				t.Fatalf("blocks read believed cached: %d of 3", got)
			}
			if got := f.sf.tree.CachedCount(nil, 11, 64); got != 0 {
				t.Fatalf("%d blocks beyond EOF believed cached after a short read", got)
			}

			// Another process appends 13 blocks; the library has seen none
			// of them.
			grown := make([]byte, 24*bs-size)
			if _, err := f.Kernel().WriteAt(tl, grown, size); err != nil {
				t.Fatal(err)
			}
			if got := f.sf.tree.CachedCount(nil, 11, 24); got != 0 {
				t.Fatalf("%d appended blocks believed cached", got)
			}
			before := rt.Stats()
			f.prefetchAsync(tl, 11, 13, budgetUnasked, false)
			after := rt.Stats()
			if after.SavedPrefetches != before.SavedPrefetches {
				t.Fatal("intent over the appended blocks was elided by stale belief bits")
			}
			if after.PrefetchCalls != before.PrefetchCalls+1 {
				t.Fatalf("intent over the appended blocks made %d kernel calls, want 1",
					after.PrefetchCalls-before.PrefetchCalls)
			}
		})
	}
}

// TestNegativeOffsetReadTrainsNothing: a read at a negative offset names no
// byte. The kernel refuses it with vfs.ErrNegativeOffset on both read
// paths, and the library neither counts it as an access, nor feeds it to
// the predictor, nor prefetches for it, nor marks the blocks its buffer
// would have covered from block 0 on.
func TestNegativeOffsetReadTrainsNothing(t *testing.T) {
	const bs = 4096
	for _, path := range []string{"ReadAt", "ring"} {
		t.Run(path, func(t *testing.T) {
			v := newKernel(100_000)
			opt := CrossPredictOpt.Options()
			opt.OptLimits = false // no prefetch on open: the tree starts empty
			rt := New(v, opt)
			tl := simtime.NewTimeline(0)
			v.FS().CreateSynthetic(tl, "f", 256*bs)
			f, err := rt.Open(tl, "f")
			if err != nil {
				t.Fatal(err)
			}
			ops, stats := rt.ops, rt.Stats()
			observes := int64(-1)
			if f.pred != nil {
				observes = f.pred.Observes()
			}
			buf := make([]byte, 64<<10) // 16 blocks from 4 before block 0
			var n int64
			if path == "ReadAt" {
				got, rerr := f.ReadAt(tl, buf, -4*bs)
				n, err = int64(got), rerr
			} else {
				ring := rt.NewRing(1, 8)
				if err := ring.PrepRead(f, buf, -4*bs, 1); err != nil {
					t.Fatal(err)
				}
				ring.Submit(tl)
				cqes := ring.Reap(tl, 1)
				if len(cqes) != 1 {
					t.Fatalf("cqes = %+v", cqes)
				}
				n, err = cqes[0].N, cqes[0].Err
			}
			if n != 0 || !errors.Is(err, vfs.ErrNegativeOffset) {
				t.Fatalf("read = %d, %v; want 0, vfs.ErrNegativeOffset", n, err)
			}
			if got := rt.ops; got != ops {
				t.Errorf("%d accesses counted", got-ops)
			}
			if f.pred != nil && f.pred.Observes() != observes {
				t.Errorf("predictor observed %d accesses", f.pred.Observes()-observes)
			}
			if got := rt.Stats(); got != stats {
				t.Errorf("runtime stats moved %+v → %+v", stats, got)
			}
			if got := f.sf.tree.CachedCount(nil, 0, 256); got != 0 {
				t.Errorf("%d blocks believed cached", got)
			}
		})
	}
}
