package pagecache

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// goldenDigests pin the cache's observable behaviour under one fixed op
// script per reclaim policy: which pages are resident after every op (so
// which victims each reclaim pass chose, in which order across passes),
// every writeback the flush hook saw, in order, every virtual clock, the
// global and per-tenant ledgers, and the full telemetry and scorecard
// snapshots. They were recorded by running this file unchanged against the
// map[int64]*page cache the frame table replaced; a host-side change to
// the cache must reproduce them bit for bit. Re-recorded once since, for
// the telemetry snapshot alone: it gained the
// lib_dropped_behind_pages counter and the dropped-behind outcome, both
// zero here (with the two names taken out again the old digests come back).
// And once more when the recorder lost the Leap predictor arm: its row left
// the telemetry snapshot (with that row left out of the parent's export,
// the parent reproduces these digests). And once more when the recorder
// lost the two brownout outcomes, for the same reason and with the same
// check. And once more when it lost the device_injected_stall_ns counter,
// again with the same check.
var goldenDigests = map[string]uint64{
	"global":  0x2eb5cdd821b253f7,
	"tenants": 0x2e5fd02a7ccdab50,
}

func TestGoldenEvictionOrder(t *testing.T) {
	for _, mode := range []string{"global", "tenants"} {
		t.Run(mode, func(t *testing.T) {
			got := goldenRun(t, mode)
			if want := goldenDigests[mode]; got != want {
				t.Fatalf("behaviour digest %#x, want %#x: eviction order, a ledger charge or a telemetry booking moved", got, want)
			}
		})
	}
}

func goldenRun(t *testing.T, mode string) uint64 {
	const (
		capacity = 512
		files    = 4
		span     = 2048 // pages per file the script touches
		ops      = 4000
	)
	h := fnv.New64a()
	note := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }

	flushes := 0
	flush := func(at simtime.Time, ino, lo, hi int64) (simtime.Time, error) {
		flushes++
		note("flush %d %d %d %d\n", at, ino, lo, hi)
		if flushes%5 == 0 {
			return at, errors.New("injected writeback failure")
		}
		return at.Add(simtime.Duration(hi-lo) * 1000), nil
	}
	c := New(Config{BlockSize: 4096, CapacityPages: capacity, Costs: simtime.DefaultCosts()}, flush)
	rec := telemetry.NewRecorder(1 << 14)
	score := telemetry.NewScorecard()
	c.SetTelemetry(rec)
	c.SetScorecard(score)
	if mode == "tenants" {
		c.SetTenantBudget(1, 96, 0)   // soft only: biases global reclaim
		c.SetTenantBudget(2, 64, 160) // hard: tenant-targeted reclaim
	}

	rng := rand.New(rand.NewSource(12))
	tl := simtime.NewTimeline(0)
	var res LookupResult
	fcs := make([]*FileCache, files)
	for i := range fcs {
		fcs[i] = c.File(int64(10 + i))
	}
	origins := []telemetry.Origin{telemetry.OriginDemand, telemetry.OriginReadahead, telemetry.OriginCrossOS}
	for op := 0; op < ops; op++ {
		fc := fcs[rng.Intn(files)]
		lo := rng.Int63n(span)
		if rng.Intn(3) > 0 {
			lo = (int64(op) * 7) % span // a sweeping front, so ranges get revisited
		}
		hi := lo + 1 + rng.Int63n(96)
		switch k := rng.Intn(100); {
		case k < 45:
			opt := InsertOptions{MarkerAt: -1, Origin: origins[rng.Intn(len(origins))], Dirty: rng.Intn(8) == 0}
			if rng.Intn(4) == 0 {
				opt.MarkerAt = lo + (hi-lo)/2
			}
			if opt.Origin.IsPrefetch() {
				opt.ReadyAt = tl.Now().Add(simtime.Duration(rng.Intn(50000)))
				opt.Arm = telemetry.Arm(rng.Intn(2))
			}
			if mode == "tenants" {
				opt.Tenant = rng.Intn(3)
			}
			note("ins %d\n", fc.InsertRange(tl, lo, hi, opt))
		case k < 85:
			res.Tenant = 0
			if mode == "tenants" {
				res.Tenant = rng.Intn(3)
			}
			fc.LookupRangeInto(tl, lo, hi, &res)
			note("look %d %d %v %v\n", res.PresentCount, res.ReadyAt, res.MarkerHit, res.Present)
		case k < 90:
			note("rm %d\n", fc.RemoveRange(tl, lo, hi))
		case k < 95:
			fc.SetDirtyRange(tl, lo, hi)
		default:
			note("dirtyruns %v\n", fc.CollectDirtyRuns(tl, lo, hi))
		}
		for _, f := range fcs {
			note("%d:%v ", f.InoID(), f.FastMissingRuns(nil, 0, span+128))
		}
		note("| %d %+v\n", tl.Now(), c.Stats())
	}
	c.DropFile(tl, fcs[0].InoID())
	note("end %d %+v %+v\n", tl.Now(), c.Stats(), c.TenantStats())
	for _, f := range fcs {
		note("%d %d %d %+v\n", f.CachedPages(), f.Hits(), f.Misses(), f.TreeLockStats())
	}
	for _, snap := range []any{rec.Snapshot(), score.Snapshot()} {
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if st := c.Stats(); st.Evictions == 0 || st.DirectReclaim == 0 || st.Writebacks == 0 ||
		(mode == "tenants" && st.TenantReclaims == 0) {
		t.Fatalf("script did not exercise reclaim: %+v", st)
	}
	return h.Sum64()
}
