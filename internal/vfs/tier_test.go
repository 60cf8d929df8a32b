package vfs

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// newTieredKernel builds a kernel over a width-1 local device tiered
// over a half-remote NVMe-oF device.
func newTieredKernel(t *testing.T, capacity int64) (*VFS, *blockdev.Stack) {
	t.Helper()
	costs := simtime.DefaultCosts()
	st := blockdev.NewStack(blockdev.StackConfig{
		Local: blockdev.NVMeConfig(),
		Width: 1,
		Tier: blockdev.TierConfig{
			Enabled:    true,
			Remote:     blockdev.RemoteNVMeConfig(),
			RemoteFrac: 0.5,
		},
	})
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: capacity, Costs: costs}, nil)
	return NewStack(DefaultConfig(), fsys, st, cache), st
}

// Regression test for the single-device congestion accounting bug:
// prefetch congestion decisions must read the backlog of only the
// backends a range actually targets. Before the fix they read the
// stack-wide worst backlog, so a saturated remote tier throttled prefetch
// bound for idle local devices.
func TestSaturatedRemoteDoesNotThrottleLocalPrefetch(t *testing.T) {
	v, st := newTieredKernel(t, 1_000_000)
	tl := simtime.NewTimeline(0)
	if _, err := v.FS().CreateSynthetic(tl, "big", 16<<20); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open(tl, "big")
	if err != nil {
		t.Fatal(err)
	}

	// Saturate the remote member far past the congestion limit; the local
	// member stays idle.
	remote := st.Member(st.NumMembers() - 1)
	if _, err := remote.AccessAsync(tl.Now(), blockdev.OpRead, 0, 1<<30); err != nil {
		t.Fatal(err)
	}
	if st.Backlog(tl.Now()) <= v.cfg.CongestionLimit {
		t.Fatal("remote member not saturated enough to exercise congestion")
	}

	// The stack-wide worst backlog is congested, but per-range decisions
	// split by target backend. Scan extent-sized logical windows and pick
	// one fully local (zero backlog) and one touching the saturated
	// remote tier.
	extBlocks := blockdev.ExtentSize / v.BlockSize()
	var localLo, remoteLo int64 = -1, -1
	for lo := int64(0); lo+extBlocks <= f.ino.Blocks(); lo += extBlocks {
		switch b := f.RangeBacklog(tl.Now(), lo, lo+extBlocks); {
		case b == 0:
			if localLo < 0 {
				localLo = lo
			}
		case b > v.cfg.CongestionLimit:
			if remoteLo < 0 {
				remoteLo = lo
			}
		}
	}
	if localLo < 0 || remoteLo < 0 {
		t.Fatalf("half-remote dataset should yield both window kinds (local=%d remote=%d)",
			localLo, remoteLo)
	}

	// End to end through the prefetch admission: a run over the local
	// extent issues, a run over the saturated remote extent is postponed
	// as congested.
	issued, err := f.prefetchRuns(tl, tl.Now(),
		[]bitmap.Run{{Lo: localLo, Hi: localLo + extBlocks}},
		-1, telemetry.OriginReadahead, telemetry.ArmNone)
	if err != nil {
		t.Fatal(err)
	}
	if issued == 0 {
		t.Fatal("local-targeted prefetch was postponed by remote congestion")
	}
	issued, err = f.prefetchRuns(tl, tl.Now(),
		[]bitmap.Run{{Lo: remoteLo, Hi: remoteLo + extBlocks}},
		-1, telemetry.OriginReadahead, telemetry.ArmNone)
	if err != nil {
		t.Fatal(err)
	}
	if issued != 0 {
		t.Fatal("remote-targeted prefetch should postpone against its backend backlog")
	}
}

// newBoostedFile opens a 16MB file on a kernel over a width-1 local device
// tiered over a half-remote NVMe-oF device 200µs away, with cross-tier
// prefetch on; it returns the file and the tier's extent size in blocks.
func newBoostedFile(t *testing.T) (*simtime.Timeline, *File, int64) {
	t.Helper()
	costs := simtime.DefaultCosts()
	st := blockdev.NewStack(blockdev.StackConfig{
		Local: blockdev.NVMeConfig(),
		Width: 1,
		Tier: blockdev.TierConfig{
			Enabled:           true,
			Remote:            blockdev.RemoteNVMeConfigRTT(200 * simtime.Microsecond),
			RemoteFrac:        0.5,
			CrossTierPrefetch: true,
		},
	})
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: 1 << 20, Costs: costs}, nil)
	v := NewStack(DefaultConfig(), fsys, st, cache)
	tl := simtime.NewTimeline(0)
	if _, err := v.FS().CreateSynthetic(tl, "big", 16<<20); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open(tl, "big")
	if err != nil {
		t.Fatal(err)
	}
	return tl, f, blockdev.ExtentSize / v.BlockSize()
}

// Cross-tier prefetch must deepen readahead over remote-resident
// extents (the RTT-scaled boost) and leave all-local ranges alone.
func TestRangeBoostDeepensRemoteReadahead(t *testing.T) {
	_, f, extBlocks := newBoostedFile(t)
	var sawBoost, sawFlat bool
	for lo := int64(0); lo+extBlocks <= f.ino.Blocks(); lo += extBlocks {
		switch b := f.rangeBoost(lo, lo+extBlocks); {
		case b > 1:
			sawBoost = true
		case b == 1:
			sawFlat = true
		default:
			t.Fatalf("boost %d < 1", b)
		}
	}
	if !sawBoost || !sawFlat {
		t.Fatalf("want both boosted (remote) and flat (local) windows: boost=%v flat=%v",
			sawBoost, sawFlat)
	}
}

// The static window is RA.MaxPages × the range's boost for readahead_info,
// but readahead(2) keeps the bare RA.MaxPages over remote extents too: its
// clamp is paper Figure 1's under-prefetch pathology, which the APPonly
// baseline is measured against.
func TestReadaheadKeepsTheBareStaticCap(t *testing.T) {
	tl, f, extBlocks := newBoostedFile(t)
	ra, bs := f.v.cfg.RA.MaxPages, f.v.BlockSize()
	var remote []int64
	for lo := int64(0); lo+extBlocks <= f.ino.Blocks(); lo += extBlocks {
		if b := f.rangeBoost(lo, lo+extBlocks); b > 1 {
			if w := f.StaticWindow(lo, lo+extBlocks); w != ra*b {
				t.Fatalf("static window over a remote extent = %d pages, want %d × %d", w, ra, b)
			}
			remote = append(remote, lo)
		}
	}
	if len(remote) < 2 {
		t.Fatalf("want two remote extents, found %d", len(remote))
	}

	// A prefetch promotes the extents it reads, so each call gets its own.
	lo := remote[0]
	if got := f.Readahead(tl, lo*bs, 4<<20); got != ra*bs {
		t.Errorf("readahead(2) of 4MB over a remote extent submitted %d bytes, want the bare cap %d", got, ra*bs)
	}
	if got := f.fc.CachedPages(); got != ra {
		t.Errorf("readahead(2) left %d pages resident, want %d", got, ra)
	}
	lo = remote[1]
	want := f.StaticWindow(lo, lo+(4<<20)/bs)
	if info := f.ReadaheadInfo(tl, CacheInfoRequest{Offset: lo * bs, Bytes: 4 << 20}, nil); info.RequestedPages != want {
		t.Errorf("readahead_info of 4MB over a remote extent granted %d pages, want the static window %d", info.RequestedPages, want)
	}
}
