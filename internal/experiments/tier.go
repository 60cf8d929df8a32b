package experiments

import (
	"fmt"

	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/simtime"
)

// tierPatterns is the tiered-stack sweep's access patterns.
var tierPatterns = []struct {
	name string
	kind pattern
}{
	// Readahead's home turf, and where RAID-0 striping must show its
	// bandwidth.
	{"sequential", patSequential},
	// Skewed reuse that drives hotness promotion of the popular extents.
	{"zipfian-lsm", patZipfLSM},
	// Each stream crosses tier boundaries at its own pace.
	{"shared-file", patStreams},
}

// tierStack is one device-stack configuration of the sweep grid.
type tierStack struct {
	name       string
	width      int     // RAID-0 stripe width of the local tier
	remoteFrac float64 // fraction of extents starting remote (0 = tier off)
	crossPF    bool    // cross-tier prefetch (promotion + RTT-scaled boost)
	capped     bool    // bound the local tier to 3/4 of the file
}

// tierStacks is the stack grid: stripe width {1,2} × tier
// {off, half-remote} × cross-tier prefetch {off, on}. The capped cell
// bounds the local tier below the set reads would promote, so promotion
// stops at the cap (reads land extents only in free local capacity;
// DESIGN.md §16).
var tierStacks = []tierStack{
	{"w1-local", 1, 0, false, false},
	{"w2-local", 2, 0, false, false},
	{"w1-remote", 1, 0.5, false, false},
	{"w1-remote+pf", 1, 0.5, true, false},
	{"w2-remote+pf", 2, 0.5, true, false},
	{"w1-remote+pf-cap", 1, 0.5, true, true},
}

var (
	tierFull = SweepConfig{FileMB: 16, IOSize: 16 << 10, Ops: 2048}
	// Quarter-scale everything, including the readahead window (see Tier).
	tierQuick = SweepConfig{FileMB: 4, IOSize: 16 << 10, Ops: 512}
)

// TierResult is one cell's measured outcome. Headline numbers cover the
// warm second half of the replay, after the tier has had a full half to
// learn residency and promote the hot set.
type TierResult struct {
	// fingerprint's digest covers the headline numbers, tier totals and
	// the backend partition.
	fingerprint
	Pattern, Stack string
	Reads, Bytes   int64
	warmHalf
	P99Micros float64 // the warm per-read latency tail
	// Tier machinery totals over the whole replay.
	Promotions, PrefetchPromotions int64
	// BackendCommands is the per-member command partition (audit-checked
	// against the stack totals inside AuditTelemetry).
	BackendCommands []int64
}

var tierFields = []field[*TierResult]{
	{"pattern", "pattern", "%s", func(r *TierResult) any { return r.Pattern }},
	{"stack", "stack", "%s", func(r *TierResult) any { return r.Stack }},
	{"reads", "reads", "%d", func(r *TierResult) any { return r.Reads }},
	{"MB", "client_mb", "%.1f", func(r *TierResult) any { return mbytes(r.Bytes) }},
	{"", "warm_reads", "", func(r *TierResult) any { return r.WarmReads }},
	{"warm-hit", "warm_hit_rate", "%.3f", func(r *TierResult) any { return r.WarmHitRate }},
	{"warm-pages/s", "warm_pages_per_s", "%.0f", func(r *TierResult) any { return r.WarmPagesPerSec }},
	{"p99-us", "p99_us", "%.1f", func(r *TierResult) any { return r.P99Micros }},
	{"promo", "promotions", "%d", func(r *TierResult) any { return r.Promotions }},
	{"pf-promo", "prefetch_promotions", "%d", func(r *TierResult) any { return r.PrefetchPromotions }},
	{"", "backend_commands", "", func(r *TierResult) any { return r.BackendCommands }},
	{"", "determinism_digest", "", func(r *TierResult) any { return r.hexDigest() }},
}

// tierSys is one cell's system: OS-kernel readahead over the
// configured device stack, with plugging and telemetry on so the
// per-backend partition identities are audit-checked.
func tierSys(cc tierStack, fileMB, raBytes int64) crossprefetch.Config {
	cfg := crossprefetch.Config{
		Approach:    crossprefetch.OSOnly,
		MemoryBytes: fileMB << 20 / 4,
		Stripe:      cc.width,
		// Chunk well below the readahead window so every prefetch
		// command spans both members of a width-2 stripe, and deepen the
		// kernel window (512KB at full scale): a width-1 device
		// saturates its bandwidth already at the default 128KB, so
		// without pipelining room the stripe could never show its
		// aggregate bandwidth.
		StripeChunkBytes: 64 << 10,
		KernelRAMaxBytes: raBytes,
		Telemetry:        true,
	}
	if cc.remoteFrac > 0 {
		// The remote tier is NVMe-oF across a congested fabric: 200µs
		// round trip and a fraction of the local media's bandwidth.
		// (The default 15µs-RTT model is so close to local NVMe that
		// leaving data remote is nearly free — the regime where
		// cross-tier prefetch earns its keep is the one where every
		// remote miss hurts.)
		remote := blockdev.RemoteNVMeConfigRTT(200 * simtime.Microsecond)
		remote.ReadBandwidth = 400 << 20
		remote.WriteBandwidth = 300 << 20
		cfg.Tier = blockdev.TierConfig{
			Enabled:           true,
			Remote:            remote,
			RemoteFrac:        cc.remoteFrac,
			CrossTierPrefetch: cc.crossPF,
		}
		if cc.capped {
			// Bound the local tier below the file so promotion fills it
			// to the cap and then stops there.
			cfg.Tier.LocalCapBytes = fileMB << 20 * 3 / 4
		}
	}
	return cfg
}

// replayTier runs one pattern over one stack; the audit that follows
// checks the exact per-backend partition of device commands and bytes.
func replayTier(r *cellRun, cfg SweepConfig, name string, kind pattern, st tierStack) (*TierResult, error) {
	rd, warm, err := r.twoHalves("tier-file", cfg, kind)
	if err != nil {
		return nil, err
	}
	res := &TierResult{Pattern: name, Stack: st.name, Reads: int64(rd.next), Bytes: rd.bytesRead(), warmHalf: warm}
	_, tail99 := tail(warm.warmLat)
	res.P99Micros = float64(tail99) / 1e3
	ts := r.sys.Stack().TierStats(0)
	res.Promotions = ts.Promotions
	res.PrefetchPromotions = ts.PrefetchPromotions
	for _, ms := range r.sys.Stack().MemberStats() {
		res.BackendCommands = append(res.BackendCommands, ms.PlugCommands)
	}
	res.Digest = digest(nil, fmt.Sprintf("%s|%s|%d|%d|%.9f|%.3f|%.3f|%d|%d|%v",
		st.name, name, res.Reads, res.Bytes, res.WarmHitRate,
		res.WarmPagesPerSec, res.P99Micros, res.Promotions,
		res.PrefetchPromotions, res.BackendCommands))
	return res, nil
}

// tierContract, on the sequential pattern (striping's and readahead's
// home turf): width-2 striping must reach >= 1.7x the width-1 throughput,
// cross-tier prefetch must hold >= 70% of the all-local warm hit rate on
// the half-remote dataset, and the tiered cell with cross-tier prefetch
// must beat the prefetch-off tiered cell on warm p99 read latency. On
// every pattern the capped cell must promote fewer extents than the same
// stack uncapped (the cap stops promotion).
func tierContract(_ []*TierResult, at func(cell string) *TierResult) error {
	w1, w2 := at("sequential/w1-local"), at("sequential/w2-local")
	if w2.WarmPagesPerSec < 1.7*w1.WarmPagesPerSec {
		return fmt.Errorf("width-2 sequential pages/s %.0f below 1.7x width-1 %.0f",
			w2.WarmPagesPerSec, w1.WarmPagesPerSec)
	}
	rpf, rnopf := at("sequential/w1-remote+pf"), at("sequential/w1-remote")
	if rpf.WarmHitRate < 0.7*w1.WarmHitRate {
		return fmt.Errorf("half-remote cross-tier prefetch warm hit %.3f below 70%% of all-local %.3f",
			rpf.WarmHitRate, w1.WarmHitRate)
	}
	if rpf.P99Micros >= rnopf.P99Micros {
		return fmt.Errorf("cross-tier prefetch p99 %.1fus does not beat prefetch-off tiered %.1fus",
			rpf.P99Micros, rnopf.P99Micros)
	}
	// Cross-tier prefetch must actually land pages in the local tier.
	if rpf.PrefetchPromotions < 1 {
		return fmt.Errorf("cross-tier prefetch cell saw %d prefetch promotions, want >= 1",
			rpf.PrefetchPromotions)
	}
	for _, p := range tierPatterns {
		capped, open := at(p.name+"/w1-remote+pf-cap"), at(p.name+"/w1-remote+pf")
		if capped.Promotions >= open.Promotions {
			return fmt.Errorf("%s capped cell: %d promotions, not fewer than the %d uncapped",
				p.name, capped.Promotions, open.Promotions)
		}
	}
	return nil
}

// Tier reproduces the tiered-stack sweep: every stack shape (striped,
// tiered, cross-tier prefetching) replayed under each access pattern.
func Tier(o Options) (*Report, error) {
	cfg, ra := o.sizing(tierFull, tierQuick), int64(512<<10)
	if o.Quick {
		// A 512KB window against 1MB of memory would stall on watermarks.
		ra = 128 << 10
	}
	s := sweep[*TierResult]{
		table:    &Table{ID: "tier", Title: "Tiered stacks: RAID-0 striping, NVMe-oF remote tier, cross-tier prefetch"},
		fields:   tierFields,
		contract: tierContract,
	}
	s.table.Note("file=%dMB mem=%dMB iosize=%dKB warm-ops=%d; warm half measured after an identical training half",
		cfg.FileMB, cfg.FileMB/4, cfg.IOSize>>10, cfg.Ops)
	s.table.Note("every cell byte-verified, audit-clean (per-backend commands/bytes partition the stack totals exactly), and re-run to an identical digest")
	for _, p := range tierPatterns {
		for _, st := range tierStacks {
			s.cells = append(s.cells, sweepCell[*TierResult]{
				name: p.name + "/" + st.name,
				cfg:  tierSys(st, cfg.FileMB, ra),
				replay: func(r *cellRun) (*TierResult, error) {
					return replayTier(r, cfg, p.name, p.kind, st)
				},
			})
		}
	}
	return s.run(o)
}
