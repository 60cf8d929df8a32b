package experiments

import (
	"encoding/json"
	"fmt"

	crossprefetch "repro"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// scoreCells is the scorecard sweep's access patterns.
var scoreCells = []struct {
	name   string
	kind   pattern
	shared bool // Clients readers instead of one
}{
	// Streams the file start to end — readahead's home turf, so accuracy
	// and coverage should both be high.
	{"sequential", patSequential, false},
	// Every other chunk — readahead keeps fetching the skipped half, so
	// accuracy degrades while coverage holds.
	{"strided", patStrided, false},
	// Ops hot-spotted random offsets over a file larger than memory —
	// prefetch guesses mostly miss and the misses get evicted unused: low
	// accuracy, high pollution.
	{"zipfian", patZipfian, false},
	// Every client streams the whole file; the round-robin drive
	// interleaves them one read apart, so clients 2..K run a few chunks
	// behind client 1's readahead wavefront and ride its prefetches.
	{"shared-file", patSequential, true},
}

var (
	scoreFull  = SweepConfig{FileMB: 64, IOSize: 64 << 10, Ops: 512, Clients: 4}
	scoreQuick = SweepConfig{FileMB: 8, IOSize: 16 << 10, Ops: 128, Clients: 2}
)

// ScoreResult is one cell's measured effectiveness.
type ScoreResult struct {
	// fingerprint's digest is the full scorecard snapshot's: identical
	// seeds must reproduce it.
	fingerprint
	Pattern      string
	Reads, Bytes int64
	// Prefetch-origin aggregates (demand excluded) over the whole run.
	Issued, Used, Wasted, Evicted int64
	// The headline scores: accuracy = used/issued, coverage = prefetch-hit
	// reads / reads, pollution = wasted/evicted.
	Accuracy, Coverage, Pollution float64
	// Timeliness of used prefetches (prefetch-to-first-use, virtual ns).
	TimelinessP50, TimelinessP99 int64
	LatePages                    int64
}

var scoreFields = []field[*ScoreResult]{
	{"pattern", "pattern", "%s", func(r *ScoreResult) any { return r.Pattern }},
	{"reads", "reads", "%d", func(r *ScoreResult) any { return r.Reads }},
	{"MB", "client_mb", "%.1f", func(r *ScoreResult) any { return mbytes(r.Bytes) }},
	{"pf-issued", "pf_issued_pages", "%d", func(r *ScoreResult) any { return r.Issued }},
	{"pf-used", "pf_used_pages", "%d", func(r *ScoreResult) any { return r.Used }},
	{"pf-wasted", "pf_wasted_pages", "%d", func(r *ScoreResult) any { return r.Wasted }},
	{"", "evicted_pages", "", func(r *ScoreResult) any { return r.Evicted }},
	{"accuracy", "accuracy", "%.3f", func(r *ScoreResult) any { return r.Accuracy }},
	{"coverage", "coverage", "%.3f", func(r *ScoreResult) any { return r.Coverage }},
	{"pollution", "pollution", "%.3f", func(r *ScoreResult) any { return r.Pollution }},
	{"t-p50-us", "timeliness_p50_us", "%.1f", func(r *ScoreResult) any { return usec(simtime.Duration(r.TimelinessP50)) }},
	{"t-p99-us", "timeliness_p99_us", "%.1f", func(r *ScoreResult) any { return usec(simtime.Duration(r.TimelinessP99)) }},
	{"late", "late_pages", "%d", func(r *ScoreResult) any { return r.LatePages }},
	{"", "scorecard_digest", "", func(r *ScoreResult) any { return r.hexDigest() }},
}

// replayScore runs one pattern over one cold file and reads the result
// off the scorecards.
func replayScore(r *cellRun, cfg SweepConfig, name string, kind pattern, clients int) (*ScoreResult, error) {
	truth, err := r.layout("score-file", cfg.FileMB)
	if err != nil {
		return nil, err
	}
	slots := truth.Size() / cfg.IOSize
	total := int(slots) // one pass over the file
	switch kind {
	case patStrided:
		total = int(slots+1) / 2
	case patZipfian:
		total = cfg.Ops
	}
	res := &ScoreResult{Pattern: name}
	offs := offsets(kind, slots, cfg.IOSize, total, cfg.Seed)
	readers := make([]*reader, clients)
	for i := range readers {
		if readers[i], err = r.open(truth, offs, cfg.IOSize); err != nil {
			return nil, err
		}
	}
	if err := replay(readers, toEnd, readAt); err != nil {
		return nil, err
	}
	for _, rd := range readers {
		res.Reads += int64(rd.next)
		res.Bytes += rd.bytesRead()
	}

	score := r.sys.Scorecard()
	for o := telemetry.Origin(0); o < telemetry.NumOrigins; o++ {
		if o.IsPrefetch() {
			i, u, w := score.OriginTotals(o)
			res.Issued += i
			res.Used += u
			res.Wasted += w
		}
	}
	res.Evicted = r.sys.Telemetry().Snapshot().Counter(telemetry.CtrCacheRemovedPages)
	ssnap := score.Snapshot()
	js, err := json.MarshalIndent(ssnap, "", "  ")
	if err != nil {
		return nil, err
	}
	res.Digest = digest(js, "")
	// The global roll-up is tenant card 0's lifetime totals (plain reads
	// are untagged → tenant 0), which carries the derived scores and the
	// timeliness quantiles.
	for _, card := range ssnap.Tenants {
		if card.Key == 0 {
			t := card.Totals
			res.Accuracy, res.Coverage, res.Pollution = t.Accuracy, t.Coverage, t.Pollution
			res.TimelinessP50, res.TimelinessP99, res.LatePages = t.TimelinessP50, t.TimelinessP99, t.LatePages
		}
	}
	return res, nil
}

// scoreSys is one cell's system: telemetry + scorecards + tracing on
// (the full live plane), memory a quarter of the file so streams wrap
// and mispredictions actually evict.
func scoreSys(fileMB int64) crossprefetch.Config {
	return crossprefetch.Config{
		Approach:    crossprefetch.CrossPredictOpt,
		MemoryBytes: fileMB << 20 / 4,
		Telemetry:   true,
		Scorecard:   true,
		Trace:       true,
	}
}

// scoreContract: the scorecards discriminate the patterns, with wide
// margins (measured: sequential accuracy 0.99 at the documented scale,
// 0.78 at quick scale under 4x tighter memory; zipfian 0.31 / 0.12 with
// pollution 1.0 in both).
func scoreContract(_ []*ScoreResult, at func(cell string) *ScoreResult) error {
	seq, zipf := at("sequential"), at("zipfian")
	if seq.Accuracy < 0.75 {
		return fmt.Errorf("sequential accuracy %.3f < 0.75", seq.Accuracy)
	}
	if zipf.Accuracy > 0.5 {
		return fmt.Errorf("zipfian accuracy %.3f > 0.5", zipf.Accuracy)
	}
	if zipf.Accuracy > seq.Accuracy-0.3 {
		return fmt.Errorf("zipfian accuracy %.3f not >= 0.3 below sequential %.3f",
			zipf.Accuracy, seq.Accuracy)
	}
	if zipf.Pollution < seq.Pollution+0.3 {
		return fmt.Errorf("zipfian pollution %.3f not >= 0.3 above sequential %.3f",
			zipf.Pollution, seq.Pollution)
	}
	return nil
}

// Score reproduces the scorecard discrimination sweep: the same system
// configuration replayed under each access pattern and scored online by
// the windowed scorecards, whose per-origin partition the audit checks
// against the recorder's.
func Score(o Options) (*Report, error) {
	cfg := o.sizing(scoreFull, scoreQuick)
	s := sweep[*ScoreResult]{
		table:    &Table{ID: "score", Title: "Online scorecards: accuracy/coverage/pollution/timeliness by access pattern"},
		fields:   scoreFields,
		contract: scoreContract,
	}
	s.table.Note("file=%dMB mem=%dMB iosize=%dKB zipf-ops=%d clients=%d",
		cfg.FileMB, cfg.FileMB/4, cfg.IOSize>>10, cfg.Ops, cfg.Clients)
	s.table.Note("every cell byte-verified, audit-clean (scorecard origin partition == recorder counters, exact), and re-run with identical seed to byte-identical scorecard JSON")
	for _, p := range scoreCells {
		clients := 1
		if p.shared {
			clients = cfg.Clients
		}
		s.cells = append(s.cells, sweepCell[*ScoreResult]{
			name: p.name,
			cfg:  scoreSys(cfg.FileMB),
			replay: func(r *cellRun) (*ScoreResult, error) {
				return replayScore(r, cfg, p.name, p.kind, clients)
			},
		})
	}
	return s.run(o)
}
