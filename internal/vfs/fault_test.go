package vfs

import (
	"errors"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// allWrites is a plan failing every write persistently.
func allWrites() *faultinject.Injector {
	return faultinject.New(faultinject.Plan{
		Seed:   1,
		Ranges: []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Persistent, Writes: true}},
	})
}

// allReads is a plan failing every read persistently.
func allReads() *faultinject.Injector {
	return faultinject.New(faultinject.Plan{
		Seed:   1,
		Ranges: []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Persistent, Reads: true}},
	})
}

// TestDeviceErrorPropagatesThroughFsync: injected device write errors
// must surface to the caller AND leave the unwritten pages dirty, so
// clearing the fault and retrying the fsync (without rewriting the
// data) succeeds. Before the fix, the failed fsync consumed the
// dirty-run harvest and the retry had nothing to write.
func TestDeviceErrorPropagatesThroughFsync(t *testing.T) {
	v, dev := newSchedKernel(t, DefaultConfig(), 10000)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "x")
	f.WriteAt(tl, make([]byte, 64<<10), 0)
	dirtyBefore := v.Cache().Dirty()

	dev.SetFaultInjector(allWrites())
	if err := f.Fsync(tl); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("fsync err = %v, want injected", err)
	}
	if got := v.Cache().Dirty(); got != dirtyBefore {
		t.Fatalf("failed fsync lost dirty state: %d dirty, want %d", got, dirtyBefore)
	}

	// Clearing the fault lets a bare retry drain the same pages.
	dev.SetFaultInjector(nil)
	if err := f.Fsync(tl); err != nil {
		t.Fatalf("retry fsync failed: %v", err)
	}
	if got := v.Cache().Dirty(); got != 0 {
		t.Fatalf("retry fsync left %d dirty pages", got)
	}
}

// TestFsyncRetriesTransientFault: a glitch that clears within the
// kernel's retry budget is absorbed by fsync itself.
func TestFsyncRetriesTransientFault(t *testing.T) {
	v, dev := newSchedKernel(t, DefaultConfig(), 10000)
	rec := telemetry.NewRecorder(0)
	v.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "x")
	f.WriteAt(tl, make([]byte, 16<<10), 0)
	dev.SetFaultInjector(faultinject.New(faultinject.Plan{
		Seed:             1,
		TransientRepeats: 2, // clears within DemandRetries=3
		Ranges:           []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Transient, Writes: true}},
	}))
	if err := f.Fsync(tl); err != nil {
		t.Fatalf("fsync should absorb transient faults: %v", err)
	}
	if v.Cache().Dirty() != 0 {
		t.Fatalf("fsync left %d dirty pages", v.Cache().Dirty())
	}
	if rec.CounterValue(telemetry.CtrVFSDemandRetries) == 0 {
		t.Fatal("no retry recorded")
	}
}

// TestDemandReadErrorPropagates: before the fix, vfs.go discarded the
// demand-read device error (blank-assigning the Access result) and ReadAt
// "succeeded" while inserting pages that held no fetched data. Now the
// error must reach the caller and the cache must stay clean.
func TestDemandReadErrorPropagates(t *testing.T) {
	v, dev := newSchedKernel(t, DefaultConfig(), 10000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 1<<20)
	f, _ := v.Open(tl, "big")
	dev.SetFaultInjector(allReads())

	buf := make([]byte, 64<<10)
	if _, err := f.ReadAt(tl, buf, 0); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("ReadAt err = %v, want injected", err)
	}
	if got := f.fc.CachedPages(); got != 0 {
		t.Fatalf("failed demand read poisoned the cache with %d pages", got)
	}
	// Recovery: clearing the fault makes the same read work.
	dev.SetFaultInjector(nil)
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatalf("read after clearing fault: %v", err)
	}
}

// TestDemandReadRetriesTransient: a transient read fault within the
// retry budget never surfaces to the application.
func TestDemandReadRetriesTransient(t *testing.T) {
	v, dev := newSchedKernel(t, DefaultConfig(), 10000)
	rec := telemetry.NewRecorder(0)
	v.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 1<<20)
	f, _ := v.Open(tl, "big")
	dev.SetFaultInjector(faultinject.New(faultinject.Plan{
		Seed:             1,
		TransientRepeats: 3, // == DemandRetries: last retry succeeds
		Ranges:           []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Transient, Reads: true}},
	}))
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
	if rec.CounterValue(telemetry.CtrVFSDemandRetries) != 3 {
		t.Fatalf("demand retries = %d, want 3", rec.CounterValue(telemetry.CtrVFSDemandRetries))
	}
	if rec.CounterValue(telemetry.CtrVFSDemandIOErrors) != 0 {
		t.Fatal("absorbed fault counted as IO error")
	}
}

// TestFailedPrefetchDoesNotPoisonCache: an async prefetch whose device
// access fails must not set bitmap bits, must not satisfy a later
// readahead_info cache query, and must leave demand reads working.
func TestFailedPrefetchDoesNotPoisonCache(t *testing.T) {
	v, dev := newSchedKernel(t, DefaultConfig(), 100000)
	rec := telemetry.NewRecorder(0)
	v.SetTelemetry(rec)
	v.Cache().SetTelemetry(rec)
	dev.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 10<<20)
	f, _ := v.Open(tl, "big")

	dev.SetFaultInjector(allReads())
	info := f.ReadaheadInfo(tl, CacheInfoRequest{Offset: 0, Bytes: 512 << 10}, nil)
	if info.PrefetchErr == nil {
		t.Fatal("prefetch over failing device reported no error")
	}
	if info.PrefetchedPages != 0 {
		t.Fatalf("failed prefetch claims %d pages issued", info.PrefetchedPages)
	}
	if got := f.fc.CachedPages(); got != 0 {
		t.Fatalf("failed prefetch set %d bitmap bits", got)
	}
	// A later export must still show the range as missing, not cached.
	var w bitmap.Window
	f.ReadaheadInfo(tl, CacheInfoRequest{BitmapHi: 128}, &w)
	if w.Count() != 0 {
		t.Fatalf("export reports %d pages of the poisoned range as cached", w.Count())
	}
	if missing := f.fc.FastMissingRuns(nil, 0, 128); len(missing) != 1 || missing[0].Lo != 0 || missing[0].Hi != 128 {
		t.Fatalf("bitmap shows stale residency: %v", missing)
	}
	// The poisoning guard reconciles: no clean insertions beyond
	// read-backed pages. (The full Audit also checks this; it needs a
	// library in front of the kernel, which this test bypasses.)
	s := rec.Snapshot()
	cleanIns := s.Counter(telemetry.CtrCacheInsertedPages) - s.Counter(telemetry.CtrCacheDirtyInsertedPages)
	readBacked := s.Counter(telemetry.CtrVFSDemandFetchPages) + s.Counter(telemetry.CtrVFSPrefetchDevicePages)
	if cleanIns > readBacked {
		t.Fatalf("poisoned cache: %d clean insertions > %d read-backed pages", cleanIns, readBacked)
	}
	// Degradation: the same data remains reachable via demand reads.
	dev.SetFaultInjector(nil)
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSurfacesFaultReadaheadCovers: a sequential stream's readahead
// reaches a dead page from below, in a command that starts before it. That
// command must fail, so the page stays absent and the stream's own read of
// it surfaces the error; a range matched on the command's start offset
// alone read the dead page successfully and the stream never saw a fault.
func TestStreamSurfacesFaultReadaheadCovers(t *testing.T) {
	v, dev := newSchedKernel(t, DefaultConfig(), 100000)
	tl := simtime.NewTimeline(0)
	ino, err := v.FS().CreateSynthetic(tl, "big", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	const dead = 301 // a block no command of the stream starts at
	lo := ino.MapRange(dead, dead+1)[0].Phys * 4096
	dev.SetFaultInjector(faultinject.New(faultinject.Plan{
		Seed:   1,
		Ranges: []faultinject.RangeFault{{Lo: lo, Hi: lo + 4096, Class: faultinject.Persistent, Reads: true}},
	}))
	f, _ := v.Open(tl, "big")
	buf := make([]byte, 16<<10)
	var failedAt int64 = -1
	for off := int64(0); off < 4<<20; off += int64(len(buf)) {
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			if !errors.Is(err, blockdev.ErrInjected) {
				t.Fatalf("read at %d: %v, want an injected fault", off, err)
			}
			if failedAt < 0 {
				failedAt = off
			}
		}
	}
	if want := int64(dead*4096) / int64(len(buf)) * int64(len(buf)); failedAt != want {
		t.Fatalf("first failed read at %d, want the read at %d that holds block %d", failedAt, want, dead)
	}
}

// TestPrefetchSwallowsDeviceErrors: asynchronous readahead failures are
// advisory — they must not corrupt state, and the pages simply stay
// absent for a later demand read.
func TestPrefetchSwallowsDeviceErrors(t *testing.T) {
	v, dev := newSchedKernel(t, DefaultConfig(), 100000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 10<<20)
	f, _ := v.Open(tl, "big")

	dev.SetFaultInjector(allReads())
	if n := f.Readahead(tl, 0, 128<<10); n != 0 {
		t.Fatalf("failed readahead claims %d bytes submitted", n)
	}
	if got := f.fc.CachedPages(); got != 0 {
		t.Fatalf("failed prefetch cached %d pages", got)
	}
	// Demand read after the fault clears works.
	dev.SetFaultInjector(nil)
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackErrorKeepsPagesDirty: eviction-path writeback that fails
// must re-insert the victims dirty (no silent data loss); once the
// fault clears, the pages drain normally.
func TestWritebackErrorKeepsPagesDirty(t *testing.T) {
	v, dev := newSchedKernel(t, DefaultConfig(), 64) // tiny cache: writes force eviction
	rec := telemetry.NewRecorder(0)
	v.SetTelemetry(rec)
	v.Cache().SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "out")

	dev.SetFaultInjector(allWrites())
	// Write 2x capacity: evictions must write back, which fails.
	buf := make([]byte, 64<<10)
	for off := int64(0); off < 512<<10; off += int64(len(buf)) {
		f.WriteAt(tl, buf, off)
	}
	lost := rec.CounterValue(telemetry.CtrWritebackLostPages)
	dirty := v.Cache().Dirty()
	if dirty == 0 && lost == 0 {
		t.Fatal("failed writeback silently discarded dirty pages")
	}
	// Losses only happen after the bounded retry budget, never silently:
	// every lost page is accounted.
	if lost > 0 && rec.CounterValue(telemetry.CtrWritebackLostPages) != lost {
		t.Fatal("unreachable") // placate the reader: lost is already the counter
	}

	// Fault clears: fsync drains everything that survived.
	dev.SetFaultInjector(nil)
	if err := f.Fsync(tl); err != nil {
		t.Fatalf("fsync after fault cleared: %v", err)
	}
	if got := v.Cache().Dirty(); got != 0 {
		t.Fatalf("%d dirty pages after drain", got)
	}
}

// TestMmapLoadSurfacesDemandFault: the mapping's fault-in path reports
// device errors (the simulation's SIGBUS stand-in).
func TestMmapLoadSurfacesDemandFault(t *testing.T) {
	v, dev := newSchedKernel(t, DefaultConfig(), 10000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "m", 1<<20)
	f, _ := v.Open(tl, "m")
	m := v.Mmap(tl, f)
	dev.SetFaultInjector(allReads())
	if err := m.Load(tl, 0, 64<<10, nil); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("mmap load err = %v, want injected", err)
	}
	if got := f.fc.CachedPages(); got != 0 {
		t.Fatalf("failed fault-in cached %d pages", got)
	}
}

// TestReclaimUnderExtremePressure: a cache far too small for the workload
// must keep functioning (every read direct-reclaims).
func TestReclaimUnderExtremePressure(t *testing.T) {
	v := newTestKernel(t, 16) // 64KB of cache
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 4<<20)
	f, _ := v.Open(tl, "big")
	buf := make([]byte, 64<<10)
	for off := int64(0); off < 4<<20; off += int64(len(buf)) {
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if used := v.Cache().Used(); used > 16 {
		t.Fatalf("cache exceeded capacity: %d", used)
	}
	if v.Cache().Stats().DirectReclaim == 0 {
		t.Fatal("expected direct reclaim under extreme pressure")
	}
}

// TestWriterThrottling: buffered writers must be throttled to device write
// bandwidth once dirty pages pile up, instead of running at memory speed.
func TestWriterThrottling(t *testing.T) {
	v := newTestKernel(t, 4096) // 16MB cache
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "out")
	buf := make([]byte, 1<<20)
	const total = 64 << 20
	for off := int64(0); off < total; off += int64(len(buf)) {
		if _, err := f.WriteAt(tl, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	// 64MB at the NVMe's 900MB/s write bandwidth needs >= ~71ms; an
	// unthrottled writer would finish in ~copy time (~6ms).
	if got := tl.Elapsed(); got < 50*simtime.Millisecond {
		t.Fatalf("writer not throttled: 64MB in %v", got)
	}
}
