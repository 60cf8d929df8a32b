package crosslib

import (
	"math/rand"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/vfs"
)

// The cold drop (DESIGN.md §24, "which pages"): the evictor chooses the file
// and the range, the kernel chooses which pages of it go — not the ones on
// its active list.

// eighthScale is CrossPredictOpt at an eighth of the benchmark's geometry,
// as TestStreamKeepsItsPrefetcher scales it: range-tree node, InactiveAge and
// poll interval together, for a cache an eighth of a cell's.
func eighthScale() Options {
	opt := CrossPredictOpt.Options()
	opt.RangeTreeSpan /= 8
	opt.InactiveAge /= 8
	opt.EvictCheckOps /= 8
	return opt
}

// newCellRateKernel is newKernel over a device that streams at the rate
// tier_stripe_scan's half-remote stripe does (about 500 MB/s), so that a
// pass scaled down with the cache takes as long against InactiveAge as the
// cell's does.
func newCellRateKernel(capacity int64) *vfs.VFS {
	dev := blockdev.NVMeConfig()
	dev.ReadBandwidth = 500 << 20
	return newKernelOn(dev, capacity)
}

// openSynthetic creates a synthetic file of the given size and opens it
// through the runtime.
func openSynthetic(t *testing.T, rt *Runtime, tl *simtime.Timeline, name string, bytes int64) *File {
	t.Helper()
	if _, err := rt.VFS().FS().CreateSynthetic(tl, name, bytes); err != nil {
		t.Fatal(err)
	}
	f, err := rt.Open(tl, name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// residentPages reports how many of the blocks [lo, hi) of f the kernel holds.
func residentPages(f *File, lo, hi int64) int64 {
	n := hi - lo
	for _, r := range f.Kernel().FileCache().FastMissingRuns(nil, lo, hi) {
		n -= r.Blocks()
	}
	return n
}

// TestScanSparesReReadSet is tier_stripe_scan at an eighth of its geometry,
// over a device at that cell's rate: two files; 8MB sequential passes, each
// longer than InactiveAge, alternate between them; between two passes a
// fixed set of 16KB slots in both files is read three times over (the
// zipfian pass's re-read set). By age alone every pass costs the set: the
// evictor drops the idle file whole and every range the stream has left
// behind, re-read slots included. The kernel knows those pages were re-used
// and keeps them; the stream's wake goes as before.
func TestScanSparesReReadSet(t *testing.T) {
	const (
		cachePages = 4096 // 16 MB
		fileBytes  = 32 << 20
		passBytes  = 8 << 20
		seqIO      = 64 << 10
		slotIO     = 16 << 10
		slotStride = 64 * slotIO // a slot every MB: 32 a file, 6 % of the cache
		slotPages  = slotIO / 4096
	)
	opt := eighthScale()
	rt := New(newCellRateKernel(cachePages), opt)
	tl := simtime.NewTimeline(0)
	files := []*File{openSynthetic(t, rt, tl, "a", fileBytes), openSynthetic(t, rt, tl, "b", fileBytes)}
	slot, buf := make([]byte, slotIO), make([]byte, seqIO)
	for pass := int64(0); pass < 5; pass++ {
		start, evicted := tl.Now(), rt.Stats().EvictedPages
		f, from := files[pass%2], pass/2*passBytes
		for off := from; off < from+passBytes; off += seqIO {
			if _, err := f.ReadAt(tl, buf, off); err != nil {
				t.Fatal(err)
			}
		}
		if took := tl.Now().Sub(start); took <= opt.InactiveAge {
			t.Fatalf("pass %d took %v, no longer than InactiveAge %v: nothing aged", pass, took, opt.InactiveAge)
		}
		if pass >= 1 {
			if rt.Stats().EvictedPages == evicted {
				t.Errorf("pass %d: the evictor dropped nothing, the stream's wake should still go", pass)
			}
			for i, f := range files {
				for off := int64(0); off < fileBytes; off += slotStride {
					if got := residentPages(f, off/4096, off/4096+slotPages); got != slotPages {
						t.Errorf("after pass %d: %d of the %d pages of file %d's re-read slot at %d MB are resident", pass, got, slotPages, i, off>>20)
					}
				}
			}
		}
		for round := 0; round < 3; round++ {
			for _, f := range files {
				for off := int64(0); off < fileBytes; off += slotStride {
					if _, err := f.ReadAt(tl, slot, off); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestColdDropClearsBelief pins the belief rule: after a cold drop the
// library believes the whole range gone, spared pages included. The stale
// "not cached" costs at most a crossing the bitmap would have elided (the
// kernel's own bitmap still skips the pages); a stale "cached" would elide a
// prefetch that is needed. It is also what bounds the asking: a range with
// no believed-cached block is no candidate, and an idle file is asked once
// per InactiveAge — for its cold pages, and if nobody has read it since, for
// the rest: what the kernel kept and nobody came back for is stale by the
// library's own measure.
func TestColdDropClearsBelief(t *testing.T) {
	const filePages, hotPages = 512, 128
	v := newKernel(10_000)
	// Predict off: the only crossings are reads and the evictor's. Always
	// over budget: every pass wants more than there is.
	rt := New(v, Options{Enabled: true, AggressiveEvict: true, MemoryBudgetPages: 16})
	age := rt.Options().InactiveAge
	tl := simtime.NewTimeline(0)
	f := openSynthetic(t, rt, tl, "f", filePages*4096)
	buf := make([]byte, 64<<10)
	read := func(lo, hi int64) {
		for off := lo * 4096; off < hi*4096; off += int64(len(buf)) {
			if _, err := f.ReadAt(tl, buf, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	// pass runs one evict pass after the file has sat idle for a further
	// wait, and checks how often it asked the kernel and what is resident.
	pass := func(wait simtime.Duration, wantAsked, wantResident int64) {
		t.Helper()
		asked := v.SyscallCount(vfs.SysFadvise)
		tl.Advance(wait)
		wtl := simtime.NewTimeline(tl.Now())
		rt.evictPass(wtl, wtl.Now())
		if asked = v.SyscallCount(vfs.SysFadvise) - asked; asked != wantAsked {
			t.Errorf("the pass asked the kernel %d times, want %d", asked, wantAsked)
		}
		if got := residentPages(f, 0, filePages); got != wantResident || residentPages(f, 0, hotPages) != min(hotPages, wantResident) {
			t.Errorf("%d pages resident after the pass, want the first %d", got, wantResident)
		}
	}
	// The second lookup that finds a page puts it on the active list: its
	// third read, if a demand miss brought it in.
	heat := func() { read(0, hotPages); read(0, hotPages) }

	read(0, filePages)
	heat()
	pass(age, 1, hotPages)
	if got := rt.Stats().EvictedPages; got != filePages-hotPages {
		t.Errorf("the pass evicted %d pages, want the %d read once", got, filePages-hotPages)
	}
	if got := f.sf.tree.CachedCount(nil, 0, filePages); got != 0 {
		t.Errorf("the library still believes %d blocks cached, want 0 — the spared ones too", got)
	}
	// Polled again and again within the age, the evictor asks for nothing.
	for i := 0; i < 3; i++ {
		pass(age/4, 0, hotPages)
	}
	// Read again, the file starts over: new cold pages go, re-read ones stay.
	read(256, 320)
	heat()
	pass(age, 1, hotPages)
	// Idle for a second age, it gives up the rest, and is then left alone.
	pass(age, 1, 0)
	pass(age, 0, 0)
}

// TestHotSetThatMoves: sparing must not wedge the budget loop. Set A is
// re-read until the kernel holds it active; then the application moves to a
// disjoint set B, in another file, under a stream. The kernel's own aging
// would not take A — it demotes active pages only when the inactive list
// runs dry, which a stream never lets it — and while A sat there the
// library would stay under its halt mark with nothing it may drop. So the
// library takes it back: A's file, idle for a second InactiveAge after the
// cold drop that spared it, goes whole. From then on B and the stream have
// the budget, nothing more is halted, and the kernel has been asked about
// as many ranges as went cold, not once per poll.
func TestHotSetThatMoves(t *testing.T) {
	const (
		cachePages = 4096 // 16 MB
		slotIO     = 16 << 10
		seqIO      = 64 << 10
		slots      = 200 // per set: 800 pages, a fifth of the cache
		setPages   = slots * slotIO / 4096
		streamed   = 256 << 20
		settleIter = 1000 // A is gone, and the halts are over, by here
		iters      = 4000
	)
	v := newCellRateKernel(cachePages)
	opt := eighthScale()
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)
	a, b := openSynthetic(t, rt, tl, "a", slots*slotIO), openSynthetic(t, rt, tl, "b", slots*slotIO)
	s := openSynthetic(t, rt, tl, "s", streamed)
	// A second descriptor on the streamed file, never read: the stream gives
	// nothing back behind it (drop-behind wants a sole descriptor), so its
	// wake is the evictor's to take back, as it was when the stream was
	// another process's.
	if _, err := rt.Open(tl, "s"); err != nil {
		t.Fatal(err)
	}
	slot, buf := make([]byte, slotIO), make([]byte, seqIO)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8*slots; i++ {
		if _, err := a.ReadAt(tl, slot, rng.Int63n(slots)*slotIO); err != nil {
			t.Fatal(err)
		}
	}
	if got := residentPages(a, 0, setPages); got != setPages {
		t.Fatalf("setup: %d of set A's %d pages resident", got, setPages)
	}

	asked := v.SyscallCount(vfs.SysFadvise)
	var haltsSettled int64
	for i := 0; i < iters; i++ {
		if _, err := b.ReadAt(tl, slot, rng.Int63n(slots)*slotIO); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReadAt(tl, buf, int64(i)*seqIO); err != nil {
			t.Fatal(err)
		}
		if i == settleIter {
			if got := residentPages(a, 0, setPages); got != 0 {
				t.Errorf("%d pages of set A still resident %d ops after the application left it", got, 2*settleIter)
			}
			haltsSettled = rt.Stats().DroppedLowMemory
		}
	}
	if got := residentPages(b, 0, setPages); got != setPages {
		t.Errorf("%d of set B's %d pages resident at the end", got, setPages)
	}
	if got := rt.Stats().DroppedLowMemory; got != haltsSettled {
		t.Errorf("%d intents halted for low memory after set A had left, want 0", got-haltsSettled)
	}
	// Twice for A's file, and once for every range the stream left behind.
	nodes := int64(iters) * seqIO / 4096 / opt.RangeTreeSpan
	if asked = v.SyscallCount(vfs.SysFadvise) - asked; asked > 2+nodes {
		t.Errorf("the evictor asked the kernel %d times in %d polls, want at most %d", asked, 2*iters/opt.EvictCheckOps, 2+nodes)
	}
}

// TestEvictPassColdDropAllocs: an evict pass whose range meets spared pages
// allocates nothing in steady state. lsm_mixed_rw polls the evictor some
// 2 500 times and each pass walks every cold range; a first cut of the cold
// drop collected the spared indexes in a slice to set their bitmap bits
// again, and moved that cell's allocations per op by a fifth.
func TestEvictPassColdDropAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc guard is meaningless")
	}
	const filePages = 512
	v := newKernel(10_000)
	rt := New(v, Options{Enabled: true, AggressiveEvict: true, MemoryBudgetPages: 16,
		RangeTreeSpan: 256})
	tl := simtime.NewTimeline(0)
	f := openSynthetic(t, rt, tl, "f", filePages*4096)
	fc, wtl := f.Kernel().FileCache(), simtime.NewTimeline(tl.Now().Add(2*rt.Options().InactiveAge))
	fc.InsertRange(nil, 0, filePages, pagecache.InsertOptions{MarkerAt: -1})
	for lo := int64(0); lo < filePages; lo += 128 { // every other 64 pages, looked up twice: active
		fc.LookupRange(nil, lo, lo+64)
		fc.LookupRange(nil, lo, lo+64)
	}
	pass := func() {
		// The cold half comes back behind the library's back and the library
		// learns of it without a reader landing, so the file is in use and
		// its ranges are cold: pass 2's case.
		fc.InsertRange(nil, 0, filePages, pagecache.InsertOptions{MarkerAt: -1})
		f.sf.tree.MarkCached(nil, 0, filePages)
		f.rt.touch(f.sf, wtl.Now())
		rt.evictPass(wtl, wtl.Now())
	}
	pass()
	if got := fc.CachedPages(); got != filePages/2 {
		t.Fatalf("setup: %d pages resident after a pass, want the %d active ones", got, filePages/2)
	}
	evicted := rt.Stats().EvictedPages
	if n := testing.AllocsPerRun(200, pass); n != 0 {
		t.Errorf("evict pass over ranges with spared pages: %v allocs/run, want 0", n)
	}
	if got := rt.Stats().EvictedPages - evicted; got != 201*filePages/2 {
		t.Errorf("the measured passes evicted %d pages, want %d: not the path this guard is for", got, 201*filePages/2)
	}
}

// TestSettledPrefetchStaysClaimedUntilRead pins what `requested` means: a
// prefetch's blocks stay claimed after it settles — ImportBitmap sets their
// cached bits and clears nothing on them — until a read consumes them. A
// node holding such claims is no candidate for pass 2 of the evictor
// however cold it is, so a prefetch nobody reads stays resident until pass 1
// drops its whole file; read, the same range goes at the next pass.
func TestSettledPrefetchStaysClaimedUntilRead(t *testing.T) {
	const filePages, readBytes = 512, 16 << 10 // the optimistic open prefetch's 2 MB, one node
	opt := CrossPredictOpt.Options()
	// The file fills the budget exactly: every pass is over budget, and the
	// reads drop nothing behind themselves (drop-behind wants a file larger
	// than the budget), so what the pass finds is what the reads left.
	opt.MemoryBudgetPages = filePages
	rt := New(newKernel(1_000_000), opt)
	age := rt.Options().InactiveAge
	tl := simtime.NewTimeline(0)
	f := openSynthetic(t, rt, tl, "f", filePages*4096)
	claims := func() (cached, requested int64) {
		cr := f.sf.tree.AppendColdestRanges(nil)
		if len(cr) != 1 {
			t.Fatalf("%d ranges hold cached blocks, want the one node", len(cr))
		}
		return cr[0].Cached, cr[0].Requested
	}
	// pass runs an evict pass two ages after the last read, with the file
	// still in use (pass 1 leaves it be), and reports the pages it evicted.
	pass := func() int64 {
		wtl := simtime.NewTimeline(tl.Now().Add(2 * age))
		f.rt.touch(f.sf, wtl.Now())
		evicted := rt.Stats().EvictedPages
		rt.evictPass(wtl, wtl.Now())
		return rt.Stats().EvictedPages - evicted
	}

	if cached, requested := claims(); cached != filePages || requested != filePages {
		t.Fatalf("after the open prefetch settled: %d blocks believed cached and %d claimed, want %d of each", cached, requested, filePages)
	}
	buf := make([]byte, readBytes)
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, requested := claims(); requested != filePages-readBytes/4096 {
		t.Fatalf("after one read: %d blocks claimed, want %d", requested, filePages-readBytes/4096)
	}
	if got := pass(); got != 0 {
		t.Errorf("pass 2 evicted %d pages of a node the prefetch still claims", got)
	}
	if got := residentPages(f, 0, filePages); got != filePages {
		t.Errorf("%d of %d prefetched pages resident after the pass", got, filePages)
	}
	for off := int64(readBytes); off < filePages*4096; off += readBytes {
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if _, requested := claims(); requested != 0 {
		t.Fatalf("after reading the whole file: %d blocks still claimed", requested)
	}
	if got := pass(); got == 0 {
		t.Error("pass 2 evicted nothing once the node's blocks were read")
	}
}
