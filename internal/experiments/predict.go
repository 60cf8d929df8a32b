package experiments

import (
	"encoding/json"
	"fmt"

	crossprefetch "repro"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// predictCells is the predictor-ensemble sweep's access patterns; each
// runs under the fixed counter and under the ensemble.
var predictCells = []struct {
	name string
	kind pattern
}{
	// The file front to back, twice — the saturating counter's home
	// turf; the ensemble must not lose to it here.
	{"sequential", patSequential},
	// Fragment chains repeat under the skew, so the MITHRIL association
	// miner learns fragment → successor, which the counter cannot see.
	{"zipfian-lsm", patZipfLSM},
	// A negative control: the interleaved noise knocks the counter off
	// its stride, but no arm predicts it better, so the ensemble must
	// hold the counter live and match the fixed baseline.
	{"interleaved-shared", patInterleaved},
}

var (
	predictFull  = SweepConfig{FileMB: 16, IOSize: 16 << 10, Ops: 2048}
	predictQuick = SweepConfig{FileMB: 4, IOSize: 16 << 10, Ops: 512}
)

// PredictResult is one cell's measured outcome. The headline numbers are
// taken over the warm second half of the replay, after the shadow arms
// have had a full training half to learn and the bandit to promote.
type PredictResult struct {
	// fingerprint's digest covers the full scorecard snapshot (per-arm
	// cards included) and the headline numbers.
	fingerprint
	Pattern, Mode string // Mode is "fixed" or "ensemble"
	Reads, Bytes  int64
	// LiveArm is the arm serving prefetches when the replay ends
	// ("counter" for the fixed baseline), Promotions the bandit's
	// live-arm changes over the whole run.
	LiveArm    string
	Promotions int64
	warmHalf
}

var predictFields = []field[*PredictResult]{
	{"pattern", "pattern", "%s", func(r *PredictResult) any { return r.Pattern }},
	{"mode", "mode", "%s", func(r *PredictResult) any { return r.Mode }},
	{"reads", "reads", "%d", func(r *PredictResult) any { return r.Reads }},
	{"MB", "client_mb", "%.1f", func(r *PredictResult) any { return mbytes(r.Bytes) }},
	{"live-arm", "live_arm", "%s", func(r *PredictResult) any { return r.LiveArm }},
	{"promotions", "promotions", "%d", func(r *PredictResult) any { return r.Promotions }},
	{"", "warm_reads", "", func(r *PredictResult) any { return r.WarmReads }},
	{"warm-hit", "warm_hit_rate", "%.3f", func(r *PredictResult) any { return r.WarmHitRate }},
	{"warm-pages/s", "warm_pages_per_s", "%.0f", func(r *PredictResult) any { return r.WarmPagesPerSec }},
	{"", "scorecard_digest", "", func(r *PredictResult) any { return r.hexDigest() }},
}

// replayPredict runs one pattern through one predictor mode; the audit
// that follows checks the per-arm partition of prefetch-origin pages.
func replayPredict(r *cellRun, cfg SweepConfig, name string, kind pattern, mode string) (*PredictResult, error) {
	rd, warm, err := r.twoHalves("predict-file", cfg, kind)
	if err != nil {
		return nil, err
	}
	res := &PredictResult{Pattern: name, Mode: mode, Reads: int64(rd.next), Bytes: rd.bytesRead(),
		LiveArm: telemetry.ArmCounter.String(), warmHalf: warm}
	if mode == "ensemble" {
		rows := r.sys.Lib().PredictorTable()
		if len(rows) == 0 {
			return nil, fmt.Errorf("ensemble on but no predictor rows")
		}
		res.LiveArm = rows[0].Live
		res.Promotions = r.sys.Lib().Stats().ArmPromotions
	}
	score, err := json.MarshalIndent(r.sys.Scorecard().Snapshot(), "", "  ")
	if err != nil {
		return nil, err
	}
	res.Digest = digest(score, fmt.Sprintf("|%s|%d|%d|%.9f|%.3f",
		res.LiveArm, res.Promotions, res.Reads, res.WarmHitRate, res.WarmPagesPerSec))
	return res, nil
}

// predictSys is one cell's system: the CrossPredictOpt stack with
// telemetry + scorecards, memory a quarter of the file so the cold tail
// actually evicts, and the ensemble toggled per cell via LibOptions.
func predictSys(fileMB int64, ensemble bool) crossprefetch.Config {
	opts := crossprefetch.CrossPredictOpt.Options()
	opts.Ensemble = ensemble
	// Keep the §4.6 aggressive evictor actually working at this scale:
	// the cells compress hours of I/O into milliseconds of virtual time,
	// so the default 100ms idle horizon never fires and free memory pins
	// at zero — which both halts every library prefetch at the low
	// watermark and lets the kernel LRU evict behind the user bitmap's
	// back (stale "cached" belief elides the predictions under test).
	// A short idle horizon, per-op budget checks, and one-fragment range
	// spans (the default 16MB span makes the whole file one always-hot
	// range) keep reclamation flowing through the library, whose fadvise
	// path clears the bitmap.
	opts.InactiveAge = simtime.Millisecond
	opts.EvictCheckOps = 1
	opts.RangeTreeSpan = 4
	// The baseline under comparison is the fixed *counter* (ensemble arm
	// 1), not counter+coverage: the coverage policy blankets random
	// accesses with 256KB windows, which under this sweep's eviction
	// pressure turns into indiscriminate churn that drowns the predictor
	// signal both cells are meant to expose.
	opts.CoveragePrefetch = false
	return crossprefetch.Config{
		Approach:    crossprefetch.CrossPredictOpt,
		LibOptions:  &opts,
		MemoryBytes: fileMB << 20 / 4,
		Telemetry:   true,
		Scorecard:   true,
	}
}

// predictContract: the ensemble must beat the fixed counter on the
// zipfian-LSM warm hit rate AND warm throughput (the MITHRIL arm gets
// promoted and prefetches fragment chains), and must never give up more
// than 2% of either on the sequential stream or the interleaved one.
func predictContract(_ []*PredictResult, at func(cell string) *PredictResult) error {
	fixed, ens := at("zipfian-lsm/fixed"), at("zipfian-lsm/ensemble")
	if ens.WarmHitRate <= fixed.WarmHitRate {
		return fmt.Errorf("ensemble zipfian-lsm hit rate %.3f does not beat fixed %.3f",
			ens.WarmHitRate, fixed.WarmHitRate)
	}
	if ens.WarmPagesPerSec <= fixed.WarmPagesPerSec {
		return fmt.Errorf("ensemble zipfian-lsm pages/s %.0f does not beat fixed %.0f",
			ens.WarmPagesPerSec, fixed.WarmPagesPerSec)
	}
	if ens.LiveArm != telemetry.ArmMithril.String() {
		return fmt.Errorf("zipfian-lsm live arm %q, want %q", ens.LiveArm, telemetry.ArmMithril)
	}
	// Elsewhere the ensemble must hold the counter's hit rate and 98% of
	// its pages/s.
	for _, pattern := range []string{"sequential", "interleaved-shared"} {
		fixed, ens := at(pattern+"/fixed"), at(pattern+"/ensemble")
		if ens.WarmHitRate < fixed.WarmHitRate-0.02 {
			return fmt.Errorf("ensemble %s hit rate %.3f more than 2%% below fixed %.3f",
				pattern, ens.WarmHitRate, fixed.WarmHitRate)
		}
		if ens.WarmPagesPerSec < 0.98*fixed.WarmPagesPerSec {
			return fmt.Errorf("ensemble %s pages/s %.0f below 98%% of fixed %.0f",
				pattern, ens.WarmPagesPerSec, fixed.WarmPagesPerSec)
		}
	}
	return nil
}

// Predict reproduces the competing-predictor sweep: every access pattern
// replayed under the fixed saturating counter and under the shadow-mode
// ensemble with bandit promotion. One goroutine on one timeline, so a seed
// determines the run — including the scorecard JSON and the bandit's
// promotion history.
func Predict(o Options) (*Report, error) {
	cfg := o.sizing(predictFull, predictQuick)
	s := sweep[*PredictResult]{
		table:    &Table{ID: "predict", Title: "Competing predictors: fixed counter vs shadow-mode ensemble with bandit promotion"},
		fields:   predictFields,
		contract: predictContract,
	}
	s.table.Note("file=%dMB mem=%dMB iosize=%dKB warm-ops=%d; warm half measured after an identical training half",
		cfg.FileMB, cfg.FileMB/4, cfg.IOSize>>10, cfg.Ops)
	s.table.Note("every cell byte-verified, audit-clean (per-arm pages partition the prefetch origins exactly), and re-run to an identical digest")
	for _, p := range predictCells {
		for _, mode := range []string{"fixed", "ensemble"} {
			s.cells = append(s.cells, sweepCell[*PredictResult]{
				name: p.name + "/" + mode,
				cfg:  predictSys(cfg.FileMB, mode == "ensemble"),
				replay: func(r *cellRun) (*PredictResult, error) {
					return replayPredict(r, cfg, p.name, p.kind, mode)
				},
			})
		}
	}
	return s.run(o)
}
