package vfs

import (
	"bytes"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
)

// newTestKernel builds a kernel with a fast deterministic device and the
// given cache capacity in pages.
func newTestKernel(t *testing.T, capacity int64) *VFS {
	t.Helper()
	costs := simtime.DefaultCosts()
	dev := blockdev.New(blockdev.NVMeConfig())
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: capacity, Costs: costs}, nil)
	return NewStack(DefaultConfig(), fsys, blockdev.WrapDevice(dev), cache)
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	v := newTestKernel(t, 10000)
	tl := simtime.NewTimeline(0)
	f, err := v.Create(tl, "a")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("hello world! "), 1000)
	if _, err := f.WriteAt(tl, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, err := f.ReadAt(tl, got, 0)
	if err != nil || n != len(data) {
		t.Fatalf("read %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
}

func TestReadMissesFetchFromDevice(t *testing.T) {
	v := newTestKernel(t, 100000)
	tl := simtime.NewTimeline(0)
	_, err := v.FS().CreateSynthetic(tl, "big", 100<<20)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := v.Open(tl, "big")
	buf := make([]byte, 16384)
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatal(err)
	}
	st := v.Stack().Stats()
	if st.ReadOps == 0 {
		t.Fatal("cold read should hit the device")
	}
	if tl.Account(simtime.WaitIO) == 0 {
		t.Fatal("cold read should charge I/O wait")
	}
}

func TestCachedReadSkipsDevice(t *testing.T) {
	v := newTestKernel(t, 100000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 10<<20)
	f, _ := v.Open(tl, "big")
	buf := make([]byte, 4096)
	f.ReadAt(tl, buf, 0)
	ops := v.Stack().Stats().ReadOps
	// Re-read the same page: warm.
	f.ReadAt(tl, buf, 0)
	// Readahead may have fetched more, but the demanded page itself must
	// not trigger new sync I/O beyond what readahead did.
	if got := v.Stack().Stats().ReadOps; got < ops {
		t.Fatalf("device ops went backwards: %d -> %d", ops, got)
	}
	if v.Cache().Stats().Hits == 0 {
		t.Fatal("warm read should count hits")
	}
}

func TestSequentialReadsTriggerReadahead(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 100<<20)
	f, _ := v.Open(tl, "big")
	buf := make([]byte, 16384)
	for off := int64(0); off < 4<<20; off += 16384 {
		f.ReadAt(tl, buf, off)
	}
	// Readahead should have brought in far more pages than demanded, and
	// the steady-state miss rate should be low.
	st := v.Cache().Stats()
	if st.MissPercent() > 30 {
		t.Fatalf("sequential read miss%% = %.1f, want low", st.MissPercent())
	}
	if f.fc.CachedPages() <= (4<<20)/4096 {
		t.Fatalf("no pages beyond demand cached: %d", f.fc.CachedPages())
	}
}

func TestRandomReadsCollapseWindow(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 1<<30)
	f, _ := v.Open(tl, "big")
	buf := make([]byte, 4096)
	offsets := []int64{0, 500 << 20, 10 << 20, 900 << 20, 300 << 20}
	for _, off := range offsets {
		f.ReadAt(tl, buf, off)
	}
	// Random reads should not drag in big windows.
	if cached := f.fc.CachedPages(); cached > 100 {
		t.Fatalf("random reads cached %d pages, want few", cached)
	}
}

func TestReadaheadSyscallClamped(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 100<<20)
	f, _ := v.Open(tl, "big")
	// Figure 1 pathology: ask for 4MB, get 128KB.
	submitted := f.Readahead(tl, 0, 4<<20)
	if submitted != 128<<10 {
		t.Fatalf("readahead submitted %d bytes, want 128KB clamp", submitted)
	}
	if got := f.fc.CachedPages(); got != 32 {
		t.Fatalf("cached %d pages, want 32", got)
	}
}

func TestFadviseRandomDisablesReadahead(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 100<<20)
	f, _ := v.Open(tl, "big")
	f.Fadvise(tl, AdvRandom, 0, 0)
	buf := make([]byte, 4096)
	for off := int64(0); off < 1<<20; off += 4096 {
		f.ReadAt(tl, buf, off)
	}
	// Only the demanded pages should be cached.
	if got := f.fc.CachedPages(); got != (1<<20)/4096 {
		t.Fatalf("cached %d pages, want exactly demanded %d", got, (1<<20)/4096)
	}
}

func TestFadviseDontNeedEvicts(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 10<<20)
	f, _ := v.Open(tl, "big")
	buf := make([]byte, 1<<20)
	f.ReadAt(tl, buf, 0)
	before := f.fc.CachedPages()
	f.Fadvise(tl, AdvDontNeed, 0, 0)
	if got := f.fc.CachedPages(); got != 0 {
		t.Fatalf("DONTNEED left %d pages (was %d)", got, before)
	}
}

func TestReadaheadInfoPrefetchesAndExports(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	v.cfg.AllowLimitOverride = true
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 100<<20)
	f, _ := v.Open(tl, "big")

	dst := new(bitmap.Window)
	info := f.ReadaheadInfo(tl, CacheInfoRequest{
		Offset: 0, Bytes: 4 << 20,
		LimitOverride: 1024,
	}, dst)
	if info.PrefetchedPages != 1024 {
		t.Fatalf("prefetched %d pages, want 1024 (4MB)", info.PrefetchedPages)
	}
	if info.RequestedPages != 1024 {
		t.Fatalf("requested %d", info.RequestedPages)
	}
	if dst.Lo() != 0 || dst.Hi() != 1024 || dst.Count() != 1024 {
		t.Fatalf("exported window [%d,%d) has %d set", dst.Lo(), dst.Hi(), dst.Count())
	}
	if info.FileCachedPages != 1024 {
		t.Fatalf("telemetry cached = %d", info.FileCachedPages)
	}

	// Second call over the same range: nothing to do.
	info2 := f.ReadaheadInfo(tl, CacheInfoRequest{Offset: 0, Bytes: 4 << 20, LimitOverride: 1024}, nil)
	if !info2.AlreadyCached || info2.PrefetchedPages != 0 {
		t.Fatalf("second call should be a no-op: %+v", info2)
	}
}

func TestReadaheadInfoRespectsStaticLimitWithoutOverride(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 100<<20)
	f, _ := v.Open(tl, "big")
	info := f.ReadaheadInfo(tl, CacheInfoRequest{Offset: 0, Bytes: 4 << 20, LimitOverride: 4096}, nil)
	if info.PrefetchedPages != v.cfg.RA.MaxPages {
		t.Fatalf("without override kernel should clamp to %d, got %d",
			v.cfg.RA.MaxPages, info.PrefetchedPages)
	}
}

func TestReadaheadInfoFastPathAvoidsTreeLock(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 10<<20)
	f, _ := v.Open(tl, "big")
	f.ReadaheadInfo(tl, CacheInfoRequest{BitmapHi: 256}, new(bitmap.Window))
	st := f.fc.TreeLockStats()
	if st.Reads != 0 || st.Writes != 0 {
		t.Fatalf("export-only readahead_info should not touch the tree lock: %+v", st)
	}
}

func TestFincoreBuildsResidency(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 10<<20)
	f, _ := v.Open(tl, "big")
	f.Readahead(tl, 0, 128<<10)
	dst := bitmap.New(0)
	f.Fincore(tl, 0, 2560, dst)
	if dst.Count() != 32 {
		t.Fatalf("fincore found %d pages, want 32", dst.Count())
	}
	// fincore is charged both the mmap lock and the tree walk.
	if tl.Account(simtime.WaitCPU) == 0 {
		t.Fatal("fincore should charge walk time")
	}
}

func TestFsyncWritesBack(t *testing.T) {
	v := newTestKernel(t, 10000)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "log")
	f.WriteAt(tl, make([]byte, 1<<20), 0)
	wrBefore := v.Stack().Stats().WriteBytes
	if err := f.Fsync(tl); err != nil {
		t.Fatal(err)
	}
	wrAfter := v.Stack().Stats().WriteBytes
	if wrAfter-wrBefore != 1<<20 {
		t.Fatalf("fsync wrote %d bytes, want 1MB", wrAfter-wrBefore)
	}
	// Second fsync: nothing dirty.
	if err := f.Fsync(tl); err != nil {
		t.Fatal(err)
	}
	if got := v.Stack().Stats().WriteBytes; got != wrAfter {
		t.Fatalf("second fsync wrote %d extra bytes", got-wrAfter)
	}
}

func TestSyscallCounters(t *testing.T) {
	v := newTestKernel(t, 10000)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "x")
	f.WriteAt(tl, []byte("hi"), 0)
	buf := make([]byte, 2)
	f.ReadAt(tl, buf, 0)
	f.Readahead(tl, 0, 4096)
	f.Fadvise(tl, AdvSequential, 0, 0)
	if v.SyscallCount(SysOpen) != 1 || v.SyscallCount(SysRead) != 1 || v.SyscallCount(SysWrite) != 1 {
		t.Fatalf("basic counters wrong")
	}
	if v.PrefetchSyscalls() != 2 {
		t.Fatalf("prefetch syscalls = %d, want 2", v.PrefetchSyscalls())
	}
}

func TestSeekAndSequentialRead(t *testing.T) {
	v := newTestKernel(t, 10000)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "x")
	f.WriteAt(tl, []byte("abcdefgh"), 0)
	buf := make([]byte, 4)
	n, _ := f.Read(tl, buf)
	if n != 4 || string(buf) != "abcd" {
		t.Fatalf("first read %q", buf[:n])
	}
	n, _ = f.Read(tl, buf)
	if n != 4 || string(buf) != "efgh" {
		t.Fatalf("second read %q", buf[:n])
	}
	f.SeekTo(2)
	n, _ = f.Read(tl, buf)
	if n != 4 || string(buf) != "cdef" {
		t.Fatalf("post-seek read %q", buf[:n])
	}
}

func TestReadBeyondEOF(t *testing.T) {
	v := newTestKernel(t, 10000)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "x")
	f.WriteAt(tl, []byte("abc"), 0)
	buf := make([]byte, 10)
	if n, _ := f.ReadAt(tl, buf, 100); n != 0 {
		t.Fatalf("read beyond EOF = %d", n)
	}
	if n, _ := f.ReadAt(tl, buf, 1); n != 2 {
		t.Fatalf("short read = %d, want 2", n)
	}
}

func TestMmapLoadFaultsAndPrefetches(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 10<<20)
	f, _ := v.Open(tl, "big")
	m := v.Mmap(tl, f)
	m.Load(tl, 0, 64<<10, nil)
	if m.Faults() == 0 {
		t.Fatal("cold load should fault")
	}
	faults := m.Faults()
	// Re-load: warm, no more faults.
	m.Load(tl, 0, 64<<10, nil)
	if m.Faults() != faults {
		t.Fatal("warm load should not fault")
	}
	// Sequential loads should readahead past the demand.
	for off := int64(64 << 10); off < 2<<20; off += 64 << 10 {
		m.Load(tl, off, 64<<10, nil)
	}
	if f.fc.CachedPages() <= (2<<20)/4096 {
		t.Fatal("mmap sequential loads should prefetch ahead")
	}
}

func TestMmapMadviseRandom(t *testing.T) {
	v := newTestKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 100<<20)
	f, _ := v.Open(tl, "big")
	m := v.Mmap(tl, f)
	m.Madvise(tl, AdvRandom)
	m.Load(tl, 50<<20, 4096, nil)
	m.Load(tl, 10<<20, 4096, nil)
	// Fault-around still brings a few pages, but no readahead windows.
	if got := f.fc.CachedPages(); got > 2*faultAroundPages {
		t.Fatalf("madvise(RANDOM) load cached %d pages", got)
	}
}

func TestMmapLoadContent(t *testing.T) {
	v := newTestKernel(t, 10000)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "x")
	f.WriteAt(tl, []byte("mapped content"), 0)
	m := v.Mmap(tl, f)
	got := make([]byte, 14)
	m.Load(tl, 0, 14, got)
	if string(got) != "mapped content" {
		t.Fatalf("mmap content = %q", got)
	}
}

func TestRemoveDropsCache(t *testing.T) {
	v := newTestKernel(t, 10000)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "x")
	f.WriteAt(tl, make([]byte, 64<<10), 0)
	if v.Cache().Used() == 0 {
		t.Fatal("write should populate cache")
	}
	if err := v.Remove(tl, "x"); err != nil {
		t.Fatal(err)
	}
	if v.Cache().Used() != 0 {
		t.Fatalf("cache still holds %d pages after remove", v.Cache().Used())
	}
	if _, err := v.Open(tl, "x"); err == nil {
		t.Fatal("open after remove should fail")
	}
}

func TestWriteRMWFetchesPartialEdges(t *testing.T) {
	v := newTestKernel(t, 100000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 1<<20)
	f, _ := v.Open(tl, "big")
	readsBefore := v.Stack().Stats().ReadOps
	// Unaligned overwrite in the middle of existing data.
	f.WriteAt(tl, []byte("xyz"), 5000)
	if got := v.Stack().Stats().ReadOps; got == readsBefore {
		t.Fatal("partial-block overwrite should RMW-fetch the block")
	}
	got := make([]byte, 3)
	f.ReadAt(tl, got, 5000)
	if string(got) != "xyz" {
		t.Fatalf("overwrite content = %q", got)
	}
}
