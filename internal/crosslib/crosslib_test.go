package crosslib

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/vfs"
)

// newKernel builds a kernel with the given cache capacity (pages) and
// limit-override support enabled.
func newKernel(capacity int64) *vfs.VFS {
	v, _ := newKernelStack(blockdev.NVMeConfig(), capacity)
	return v
}

// newKernelOn is newKernel over the given device model.
func newKernelOn(dev blockdev.Config, capacity int64) *vfs.VFS {
	v, _ := newKernelStack(dev, capacity)
	return v
}

// newKernelStack is newKernelOn that also returns the device stack it
// built, for tests that inject faults or read device counters.
func newKernelStack(dev blockdev.Config, capacity int64) (*vfs.VFS, *blockdev.Stack) {
	costs := simtime.DefaultCosts()
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: capacity, Costs: costs}, nil)
	cfg := vfs.DefaultConfig()
	cfg.AllowLimitOverride = true
	st := blockdev.NewStack(blockdev.StackConfig{Local: dev})
	return vfs.NewStack(cfg, fsys, st, cache), st
}

func TestApproachStringsAndOptions(t *testing.T) {
	for a := OSOnly; a <= CrossFetchAllOpt; a++ {
		if a.String() == "unknown" {
			t.Fatalf("approach %d has no name", a)
		}
		o := a.Options()
		if a.UsesLib() != o.Enabled {
			t.Fatalf("%v: UsesLib=%v but Options.Enabled=%v", a, a.UsesLib(), o.Enabled)
		}
	}
	if CrossPredictOpt.Options().RangeTreeSpan == 0 {
		t.Fatal("full system should use a range tree")
	}
	if CrossVisibility.Options().RangeTreeSpan != 0 {
		t.Fatal("visibility-only ablation should use a single-node tree")
	}
}

func TestPassthroughWhenDisabled(t *testing.T) {
	v := newKernel(100000)
	rt := New(v, Options{}) // disabled
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "f", 1<<20)
	f, err := rt.Open(tl, "f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().PrefetchCalls != 0 {
		t.Fatal("disabled runtime should not prefetch")
	}
}

func TestSequentialStreamPrefetches(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 64<<20)
	f, err := rt.Open(tl, "big")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16384)
	for off := int64(0); off < 16<<20; off += 16384 {
		f.ReadAt(tl, buf, off)
	}
	st := rt.Stats()
	if st.PrefetchCalls == 0 {
		t.Fatal("sequential stream should trigger library prefetch")
	}
	if st.PrefetchedPages == 0 {
		t.Fatal("prefetch should have fetched pages")
	}
	// The library should prefetch beyond the kernel's static window.
	if fcached := f.Kernel().FileCache().CachedPages(); fcached <= (16<<20)/4096+32 {
		t.Fatalf("aggressive prefetch should outrun demand: cached=%d", fcached)
	}
}

func TestCacheAwarenessSavesSyscalls(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 64<<20)
	f, _ := rt.Open(tl, "big")
	buf := make([]byte, 16384)
	// First pass populates; second pass should mostly skip prefetching.
	for pass := 0; pass < 2; pass++ {
		for off := int64(0); off < 8<<20; off += 16384 {
			f.ReadAt(tl, buf, off)
		}
	}
	st := rt.Stats()
	if st.SavedPrefetches == 0 {
		t.Fatal("warm re-read should elide prefetch syscalls")
	}
}

func TestRandomStreamNoPatternPrefetch(t *testing.T) {
	v := newKernel(1_000_000)
	// Predictor on, coverage off: random access must not trigger
	// pattern-window prefetching.
	rt := New(v, Options{Enabled: true, Predict: true})
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 1<<30)
	f, _ := rt.Open(tl, "big")
	buf := make([]byte, 4096)
	offs := []int64{900 << 20, 5 << 20, 500 << 20, 100 << 20, 700 << 20, 10 << 20}
	for _, off := range offs {
		f.ReadAt(tl, buf, off)
	}
	if got := rt.Stats().PrefetchedPages; got > 64 {
		t.Fatalf("random stream prefetched %d pages", got)
	}
}

func TestCoveragePrefetchPopulatesUnderFreeMemory(t *testing.T) {
	v := newKernel(1_000_000) // 4GB budget: plenty free
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 256<<20)
	f, _ := rt.Open(tl, "big")
	buf := make([]byte, 16384)
	offs := []int64{200 << 20, 5 << 20, 100 << 20, 30 << 20, 170 << 20, 60 << 20}
	for _, off := range offs {
		f.ReadAt(tl, buf, off)
	}
	// Coverage prefetching should have populated chunks around the random
	// accesses, far beyond the demanded pages.
	if got := rt.Stats().PrefetchedPages; got < 1024 {
		t.Fatalf("coverage prefetch fetched only %d pages", got)
	}
}

func TestFetchAllPrefetchesWholeFile(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossFetchAllOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 32<<20)
	f, _ := rt.Open(tl, "big")
	// Open queues whole-file prefetch; device congestion control trims
	// the burst to roughly CongestionLimit × bandwidth (≈7MB), so a
	// healthy chunk — but not everything — is resident immediately.
	blocks := f.Kernel().Inode().Blocks()
	if got := f.Kernel().FileCache().CachedPages(); got < 1024 {
		t.Fatalf("fetchall cached only %d of %d blocks at open", got, blocks)
	}
	// Streaming the file lets the repair passes finish the job.
	buf := make([]byte, 1<<20)
	for pass := 0; pass < 8; pass++ {
		for off := int64(0); off < 32<<20; off += 1 << 20 {
			f.ReadAt(tl, buf, off)
		}
	}
	if got := f.Kernel().FileCache().CachedPages(); got != blocks {
		t.Fatalf("fetchall converged to %d of %d blocks", got, blocks)
	}
}

func TestOptimisticOpenPrefetch(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 32<<20)
	f, _ := rt.Open(tl, "big")
	if rt.Stats().OpenPrefetches != 1 {
		t.Fatal("open should optimistically prefetch")
	}
	// 2MB = 512 pages.
	if got := f.Kernel().FileCache().CachedPages(); got != 512 {
		t.Fatalf("open prefetched %d pages, want 512", got)
	}
}

func TestLowMemoryHaltsPrefetch(t *testing.T) {
	v := newKernel(1000) // tiny: 4MB budget
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 1<<30)
	f, _ := rt.Open(tl, "big")
	buf := make([]byte, 16384)
	for off := int64(0); off < 8<<20; off += 16384 {
		f.ReadAt(tl, buf, off)
	}
	// The budget stays respected: the kernel cache never exceeds capacity.
	if used := v.Cache().Used(); used > 1000 {
		t.Fatalf("cache used %d > capacity", used)
	}
}

func TestAggressiveEvictionOfInactiveFiles(t *testing.T) {
	v := newKernel(2000) // 8MB budget
	opt := CrossPredictOpt.Options()
	opt.InactiveAge = 1 * simtime.Microsecond
	opt.EvictCheckOps = 1
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)

	v.FS().CreateSynthetic(tl, "cold", 4<<20)
	v.FS().CreateSynthetic(tl, "hot", 6<<20)
	cold, _ := rt.Open(tl, "cold")
	buf := make([]byte, 16384)
	for off := int64(0); off < 4<<20; off += 16384 {
		cold.ReadAt(tl, buf, off)
	}
	coldPages := cold.Kernel().FileCache().CachedPages()
	if coldPages == 0 {
		t.Fatal("cold file should be cached initially")
	}
	// Let the cold file go inactive, then stream the hot file under
	// pressure. The budget can hold the hot file by itself, so its stream
	// gives nothing back behind it (drop-behind): the evictor makes room.
	tl.Advance(10 * simtime.Microsecond)
	hot, _ := rt.Open(tl, "hot")
	for off := int64(0); off < 6<<20; off += 16384 {
		hot.ReadAt(tl, buf, off)
	}
	if rt.Stats().EvictedPages == 0 {
		t.Fatal("aggressive eviction should have reclaimed the inactive file")
	}
	if got := cold.Kernel().FileCache().CachedPages(); got >= coldPages {
		t.Fatalf("inactive file kept %d of %d pages", got, coldPages)
	}
}

func TestSharedFileDescriptorsShareTree(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "shared", 64<<20)
	f1, _ := rt.Open(tl, "shared")
	f2, _ := rt.Open(tl, "shared")
	if f1.sf != f2.sf {
		t.Fatal("descriptors of the same file should share state")
	}
	buf := make([]byte, 16384)
	for off := int64(0); off < 8<<20; off += 16384 {
		f1.ReadAt(tl, buf, off)
	}
	calls := rt.Stats().PrefetchCalls
	// fd2 streaming the same region should mostly hit the shared bitmap.
	tl2 := simtime.NewTimeline(tl.Now())
	for off := int64(0); off < 8<<20; off += 16384 {
		f2.ReadAt(tl2, buf, off)
	}
	st := rt.Stats()
	if st.SavedPrefetches == 0 {
		t.Fatal("second descriptor should save prefetches via shared tree")
	}
	if st.PrefetchCalls > calls*2 {
		t.Fatalf("shared state should curb duplicate prefetch calls: %d -> %d", calls, st.PrefetchCalls)
	}
}

func TestWriteUpdatesTree(t *testing.T) {
	v := newKernel(100000)
	rt := NewForApproach(v, CrossPredict)
	tl := simtime.NewTimeline(0)
	f, err := rt.Create(tl, "out")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(tl, make([]byte, 64<<10), 0)
	if got := f.sf.tree.CachedCount(nil, 0, 16); got != 16 {
		t.Fatalf("tree shows %d cached blocks after write, want 16", got)
	}
}

func TestReverseStreamPrefetches(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 64<<20)
	f, _ := rt.Open(tl, "big")
	buf := make([]byte, 16384)
	for off := int64(32 << 20); off >= 16<<20; off -= 16384 {
		f.ReadAt(tl, buf, off)
	}
	if rt.Stats().PrefetchedPages == 0 {
		t.Fatal("reverse stream should be detected and prefetched")
	}
}

func TestMmapScanPrefetches(t *testing.T) {
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 64<<20)
	f, _ := rt.Open(tl, "big")
	m := rt.Mmap(tl, f)
	// 512 loads: eight scans.
	for off := int64(0); off < 8<<20; off += 16 << 10 {
		m.Load(tl, off, 16<<10, nil)
	}
	// The scanner should have prefetched ahead of the load frontier.
	if got := f.Kernel().FileCache().CachedPages(); got <= (8<<20)/4096 {
		t.Fatalf("mmap scanner did not prefetch ahead: %d pages", got)
	}
}

func TestFincorePollStep(t *testing.T) {
	v := newKernel(1_000_000)
	opt := Options{Enabled: true}.withDefaults()
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 16<<20)
	f, _ := rt.Open(tl, "big")
	f.FincorePollStep(tl, 256)
	st := rt.Stats()
	if st.FincorePolls != 1 {
		t.Fatalf("polls = %d", st.FincorePolls)
	}
	if st.PrefetchCalls == 0 {
		t.Fatal("poll over cold file should issue readahead")
	}
	if v.SyscallCount(vfs.SysFincore) == 0 {
		t.Fatal("fincore syscall not issued")
	}
}

func TestSeekAndSequentialReadThroughLib(t *testing.T) {
	v := newKernel(100000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	f, _ := rt.Create(tl, "x")
	f.WriteAt(tl, []byte("abcdefgh"), 0)
	buf := make([]byte, 4)
	f.Read(tl, buf)
	if string(buf) != "abcd" {
		t.Fatalf("read %q", buf)
	}
	f.SeekTo(4)
	f.Read(tl, buf)
	if string(buf) != "efgh" {
		t.Fatalf("read %q", buf)
	}
}

// TestResidentReadOverhead is the contract on the library's hit path
// (DESIGN.md §20): a random 16 KB read of a fully resident file costs
// CrossPredictOpt at most 200 ns more than the bare kernel read —
// LibOverhead and one full-node coverage answer, whose span makes the
// read's mark a recency stamp — at the median, and returns the same bytes.
// A depth-1 ring read of the same file charges the library exactly what
// ReadAt does.
func TestResidentReadOverhead(t *testing.T) {
	const fileBytes, readBytes, ops = 64 << 20, 16 << 10, 2000
	run := func(a Approach, viaRing bool) (p50 simtime.Duration, sum uint64, saved int64) {
		v := newKernel(1_000_000)
		rt := NewForApproach(v, a)
		tl := simtime.NewTimeline(0)
		v.FS().CreateSynthetic(tl, "warm", fileBytes)
		f, err := rt.Open(tl, "warm")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, readBytes)
		for off := int64(0); off < fileBytes; off += readBytes {
			f.ReadAt(tl, buf, off)
		}
		ring := rt.NewRing(0, 1)
		read := func(off int64) (int64, error) {
			if !viaRing {
				n, err := f.ReadAt(tl, buf, off)
				return int64(n), err
			}
			if err := ring.PrepRead(f, buf, off, 0); err != nil {
				t.Fatal(err)
			}
			ring.Submit(tl)
			cq := ring.Reap(tl, 1)
			return cq[0].N, cq[0].Err
		}
		before := rt.Stats().SavedPrefetches
		rng := rand.New(rand.NewSource(11))
		costs := make([]simtime.Duration, ops)
		for i := range costs {
			off := rng.Int63n(fileBytes/readBytes) * readBytes
			start := tl.Now()
			n, err := read(off)
			if err != nil || n != readBytes {
				t.Fatalf("%v (ring %v): read at %d: n=%d err=%v", a, viaRing, off, n, err)
			}
			costs[i] = tl.Now().Sub(start)
			for _, b := range buf[:n] {
				sum = sum*131 + uint64(b)
			}
		}
		slices.Sort(costs)
		return costs[ops/2], sum, rt.Stats().SavedPrefetches - before
	}
	var over [2]simtime.Duration
	for i, viaRing := range []bool{false, true} {
		osP50, osSum, _ := run(OSOnly, viaRing)
		libP50, libSum, saved := run(CrossPredictOpt, viaRing)
		if libSum != osSum {
			t.Fatalf("ring %v: the two approaches read different bytes", viaRing)
		}
		if saved < ops*9/10 {
			t.Fatalf("ring %v: only %d of %d resident reads elided their coverage intent", viaRing, saved, ops)
		}
		over[i] = libP50 - osP50
		t.Logf("resident 16KB read p50 (ring %v): OSonly %v, CrossPredictOpt %v", viaRing, osP50, libP50)
	}
	if over[0] > 200*simtime.Nanosecond {
		t.Errorf("resident read: the library adds %v to ReadAt's p50, want <= 200ns", over[0])
	}
	if over[1] != over[0] {
		t.Errorf("resident read: the library adds %v to a depth-1 ring read's p50 and %v to ReadAt's", over[1], over[0])
	}
}

// TestResidentReadAtZeroAlloc: File.ReadAt under CrossPredictOpt on a
// resident file wide enough for full range-tree nodes — the coverage query
// answered from them, the read's mark a recency stamp — allocates nothing.
// Each run is 64 reads, so one allocation in any of them shows.
func TestResidentReadAtZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc guard is meaningless")
	}
	const fileBytes, readBytes = 32 << 20, 16 << 10
	v := newKernel(1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	f := openSynthetic(t, rt, tl, "warm", fileBytes)
	buf := make([]byte, readBytes)
	for off := int64(0); off < fileBytes; off += readBytes {
		f.ReadAt(tl, buf, off)
	}
	rng := rand.New(rand.NewSource(3))
	saved := rt.Stats().SavedPrefetches
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			if _, err := f.ReadAt(tl, buf, rng.Int63n(fileBytes/512-readBytes/512)*512); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("resident ReadAt: %v allocs per 64 reads, want 0", allocs)
	}
	if saved = rt.Stats().SavedPrefetches - saved; saved < 51*64*9/10 {
		t.Errorf("only %d of %d reads had their coverage intent elided: not the path this guard is for", saved, 51*64)
	}
}

// TestReadaheadZeroCountAtUnalignedOffset checks that readahead(2) with a
// count of 0 submits nothing at an unaligned offset, as at an aligned one:
// it used to round the empty range up to the offset's block and cache that
// page.
func TestReadaheadZeroCountAtUnalignedOffset(t *testing.T) {
	v := newKernel(4096)
	rt := NewForApproach(v, OSOnly)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "cold", 4<<20)
	f, err := rt.Open(tl, "cold")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Readahead(tl, 3*4096+100, 0); got != 0 {
		t.Errorf("Readahead(3*4096+100, 0) submitted %d bytes, want 0", got)
	}
	if c := f.Kernel().FileCache().CachedPages(); c != 0 {
		t.Errorf("%d pages cached, want 0", c)
	}
}

// A write the kernel refuses leaves no belief behind: a 4KB WriteAt at
// 2^44−100 crosses the 2^32-block cap and gets vfs.ErrFileTooLarge, so the
// range tree must not mark the two blocks it would have touched.
func TestRefusedWriteMarksNothing(t *testing.T) {
	v := newKernel(4096)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	f := openSynthetic(t, rt, tl, "f", 4<<20)
	if _, err := f.WriteAt(tl, make([]byte, 4096), 1<<44-100); !errors.Is(err, vfs.ErrFileTooLarge) {
		t.Fatalf("WriteAt at 2^44-100: err %v, want ErrFileTooLarge", err)
	}
	if got := f.sf.tree.CachedCount(nil, 1<<32-1, 1<<32+1); got != 0 {
		t.Errorf("the range tree believes %d blocks of [2^32-1, 2^32+1) cached after a refused write, want 0", got)
	}
}

// TestHoleyPrefetchWindowAlloc: a prefetch window with more missing runs
// than a handful — here eight one-block holes in an otherwise cached
// window, held back by the batching hysteresis — finds them in the read
// path's stack buffer (runBufLen) and allocates nothing.
func TestHoleyPrefetchWindowAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc guard is meaningless")
	}
	const window, holes = 128, 8
	rt := New(newKernel(1_000_000), Options{Enabled: true})
	tl := simtime.NewTimeline(0)
	f := openSynthetic(t, rt, tl, "holey", window*4096)
	f.sf.tree.MarkCached(nil, 0, window)
	for i := int64(0); i < holes; i++ {
		f.sf.tree.ClearCached(nil, 3+i*window/holes, 4+i*window/holes)
	}
	var buf [runBufLen]bitmap.Run
	runs, _ := rt.missingRuns(tl, f.sf, buf[:0], 0, window)
	if len(runs) != holes {
		t.Fatalf("setup: the window shows %d missing runs, want %d", len(runs), holes)
	}
	f.sf.giveBack(tl, runs)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			f.prefetchAsync(tl, 0, window, budgetUnasked, false)
		}
	})
	if allocs != 0 {
		t.Errorf("a window of %d holes: %v allocs per 64 prefetch intents, want 0", holes, allocs)
	}
	if runs, _ := rt.missingRuns(tl, f.sf, buf[:0], 0, window); len(runs) != holes {
		t.Errorf("after the measured intents the window shows %d missing runs, want %d: they were issued, not held back", len(runs), holes)
	}
}
