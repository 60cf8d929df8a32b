package vfs

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// newSchedKernel is newTestKernel with a caller-controlled config; it
// also returns the device stack it built.
func newSchedKernel(t *testing.T, cfg Config, capacity int64) (*VFS, *blockdev.Stack) {
	t.Helper()
	costs := simtime.DefaultCosts()
	st := blockdev.WrapDevice(blockdev.New(blockdev.NVMeConfig()))
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: capacity, Costs: costs}, nil)
	return NewStack(cfg, fsys, st, cache), st
}

// fragmentFile materializes blocks [0, n) of f, bypassing the page
// cache, with a junk-file allocation interleaved between every pair so
// f's physical blocks land on stride 2: no two are device-adjacent, so
// neither the mapper's ascending-contiguous extent merge nor the plug's
// front/back merge can coalesce them — the file is n one-block extents
// that must dispatch as n one-block commands. Block b is filled with
// byte(b) for later verification.
func fragmentFile(t *testing.T, f, junk *File, n int64) {
	t.Helper()
	blk := make([]byte, 4096)
	for b := int64(0); b < n; b++ {
		for i := range blk {
			blk[i] = byte(b)
		}
		f.Inode().WriteAt(blk, b*4096)
		junk.Inode().WriteAt(blk[:1], b*4096)
	}
	if got := int64(len(f.Inode().MapRange(0, n))); got != n {
		t.Fatalf("fragmentation recipe broke: %d extents, want %d", got, n)
	}
}

// TestReadaheadInfoMergesUnderDefaultConfig: with the scheduler left at
// its zero value, a readahead_info prefetch over a contiguous file
// dispatches fewer device commands than it submits plug segments (the VFS
// cuts it into 2MB chunks and the plug merges them back), moves exactly
// the bytes it asked for, and every cross-layer account still reconciles.
func TestReadaheadInfoMergesUnderDefaultConfig(t *testing.T) {
	const n = 8 << 20
	cfg := DefaultConfig()
	cfg.AllowLimitOverride = true
	v, dev := newSchedKernel(t, cfg, 100000)
	rec := telemetry.NewRecorder(0)
	dev.SetTelemetry(rec)
	v.Cache().SetTelemetry(rec)
	v.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	f, err := v.Create(tl, "seq")
	if err != nil {
		t.Fatal(err)
	}
	f.Inode().WriteAt(make([]byte, n), 0) // below the cache: every block cold
	if got := len(f.Inode().MapRange(0, n/4096)); got != 1 {
		t.Fatalf("file has %d extents, want 1", got)
	}

	info := f.ReadaheadInfo(tl, CacheInfoRequest{Offset: 0, Bytes: n, LimitOverride: n / 4096}, nil)
	if info.PrefetchErr != nil || info.PrefetchedPages != n/4096 {
		t.Fatalf("prefetched %d pages (err %v), want %d", info.PrefetchedPages, info.PrefetchErr, n/4096)
	}
	st := dev.Stats()
	if st.MergedSegments == 0 || st.ReadOps >= st.PlugSegments {
		t.Fatalf("%d device commands for %d plug segments (%d merged): the default config did not merge",
			st.ReadOps, st.PlugSegments, st.MergedSegments)
	}
	if st.ReadBytes != n {
		t.Fatalf("device read %d bytes, want %d", st.ReadBytes, n)
	}
	// The test stands in for the library, which books every page it hands
	// to readahead_info.
	rec.Add(telemetry.CtrLibIssuedPages, info.RequestedPages)
	if err := telemetry.Audit(rec.Snapshot(), telemetry.AuditInput{
		BlockSize: 4096, CacheUsed: v.Cache().Used(), StrictDevice: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchCongestionFragmentedFile is the regression test for the
// congestion-control sampling bug: the old code re-read Backlog(at) with
// a never-advancing at, and once a single fragmented prefetch booked
// more one-block reservations than the bandwidth ledger's span ring
// holds, the ring forgot the old spans and the backlog reading plateaued
// below the limit — the whole file was issued no matter how large.
// Against the advancing reservation horizon the limit must trip partway.
func TestPrefetchCongestionFragmentedFile(t *testing.T) {
	const n = 2048 // far beyond the ledger's 128-span ring
	// Every prefetch unplugs through the stack's plug.
	t.Run("plugged", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.CongestionLimit = 5 * simtime.Millisecond
		v, _ := newSchedKernel(t, cfg, 100000)
		tl := simtime.NewTimeline(0)
		f, err := v.Create(tl, "frag")
		if err != nil {
			t.Fatal(err)
		}
		junk, err := v.Create(tl, "junk")
		if err != nil {
			t.Fatal(err)
		}
		fragmentFile(t, f, junk, n)

		issued, err := f.prefetchRuns(tl, tl.Now(), []bitmap.Run{{Lo: 0, Hi: n}}, -1, telemetry.OriginReadahead, telemetry.ArmNone)
		if err != nil {
			t.Fatal(err)
		}
		if issued == 0 {
			t.Fatal("congestion control issued nothing on an idle device")
		}
		if issued >= n {
			t.Fatalf("issued all %d pages: congestion never tripped "+
				"(backlog sampling plateaued)", issued)
		}
		// The per-chunk device hold bounds how many one-block commands fit
		// under CongestionLimit; allow slack for insertion-time rounding.
		devCfg := blockdev.NVMeConfig()
		hold := devCfg.CmdOverhead +
			simtime.Duration(float64(4096)/float64(devCfg.ReadBandwidth)*float64(simtime.Second))
		if max := int64(cfg.CongestionLimit/hold) + 2; issued > max {
			t.Fatalf("issued %d pages, limit should trip by ~%d", issued, max)
		}
	})
}

// TestCongestionPostponedPrefetchCompletes covers the degradation path
// end to end: the postponed prefetch annotates its span "congested" and
// stops issuing at the limit, and a later demand read still completes
// (and correctly fills) the whole range.
func TestCongestionPostponedPrefetchCompletes(t *testing.T) {
	const n = 2048
	cfg := DefaultConfig()
	v, _ := newSchedKernel(t, cfg, 100000)
	rec := telemetry.NewRecorder(0)
	v.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	f, err := v.Create(tl, "frag")
	if err != nil {
		t.Fatal(err)
	}
	junk, err := v.Create(tl, "junk")
	if err != nil {
		t.Fatal(err)
	}
	fragmentFile(t, f, junk, n)

	tr := telemetry.NewTracer(telemetry.TraceConfig{SampleEvery: 1})
	root := tr.Root(tl, telemetry.OpBgPrefetch, f.Inode().ID())
	issued, err := f.prefetchRuns(tl, tl.Now(), []bitmap.Run{{Lo: 0, Hi: n}}, -1, telemetry.OriginReadahead, telemetry.ArmNone)
	root.Finish(tl)
	if err != nil {
		t.Fatal(err)
	}
	if issued == 0 || issued >= n {
		t.Fatalf("issued = %d, want partial issue (0 < issued < %d)", issued, n)
	}

	// The vfs.prefetch span must carry the congested annotation.
	var congested bool
	var walk func(s *telemetry.Span)
	walk = func(s *telemetry.Span) {
		if s.Name() == "vfs.prefetch" {
			for _, a := range s.Attrs() {
				if a.Key == "congested" && a.Val == 1 {
					congested = true
				}
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range tr.Roots() {
		walk(r)
	}
	if !congested {
		t.Fatal("postponed prefetch did not annotate its span congested")
	}

	// The pages the prefetch issued are in the cache; the rest are not.
	if got := v.Cache().Stats().Used; got != issued {
		t.Fatalf("resident pages = %d, want the %d issued", got, issued)
	}

	// A later demand read completes the postponed remainder with the
	// right bytes.
	buf := make([]byte, n*4096)
	nr, err := f.ReadAt(tl, buf, 0)
	if err != nil || int64(nr) != n*4096 {
		t.Fatalf("demand read after congestion: n=%d err=%v", nr, err)
	}
	for b := int64(0); b < n; b++ {
		if buf[b*4096] != byte(b) || buf[b*4096+4095] != byte(b) {
			t.Fatalf("block %d corrupt after congestion+demand completion", b)
		}
	}
}

// TestDemandRetryBackoffClamp: a large retry budget must not shift the
// exponential backoff into overflow or absurd virtual waits — every
// backoff clamps at demandRetryMax, so 80 absorbed transient faults cost
// at most ~80×cap of virtual time (and at least the capped tail).
func TestDemandRetryBackoffClamp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DemandRetries = 80
	v, dev := newSchedKernel(t, cfg, 1000)
	tl := simtime.NewTimeline(0)

	dev.SetFaultInjector(faultinject.New(faultinject.Plan{
		Seed:             1,
		TransientRepeats: 80, // last retry succeeds
		Ranges:           []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Transient, Writes: true}},
	}))
	if err := v.syncWrite(tl, 0, 4096); err != nil {
		t.Fatalf("transient faults within budget must be absorbed: %v", err)
	}
	// Backoffs: 50µs<<(a-1) for attempts 1..8 (12.75ms total), then 72
	// capped at 10ms. Unclamped, attempt 35 alone would wait ~9.9 virtual
	// days and attempt 64 would overflow negative.
	elapsed := tl.Elapsed()
	if elapsed >= simtime.Second {
		t.Fatalf("elapsed %v: backoff escaped the clamp", elapsed)
	}
	if min := 72 * 10 * simtime.Millisecond; elapsed < min {
		t.Fatalf("elapsed %v < %v: capped backoffs not charged", elapsed, min)
	}
}
