package experiments

import (
	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/lsm"
	"repro/internal/rangetree"
)

// Ablation sweeps the artifact's customization knobs (§A.6):
// PREFETCH_SIZE_VAR (per-request prefetch cap), NR_WORKERS_VAR (background
// helper threads), and CROSS_BITMAP_SHIFT (range-tree node granularity),
// on the 16-thread multireadrandom workload, all relative to the default
// CrossP[+predict+opt] configuration.
func Ablation(o Options) (*Report, error) {
	p := defaultDBParams(o, 2)
	p.seed = o.Seed + 51
	threads := dbThreads(o)
	s := sweep[*dbRow]{
		table:  &Table{ID: "ablate", Title: "Ablation of CROSS-LIB tunables (multireadrandom)"},
		fields: append(labels[lsm.BenchResult]("knob", "value"), dbKops, dbMiss, dbPrefetch, dbSaved),
	}
	s.table.Note("keys=%d memory=%s threads=%d approach=CrossP[+predict+opt]", p.keys, mb(p.memory), threads)

	knob := func(name, value string, set func(*crosslib.Options)) {
		opts := crossprefetch.CrossPredictOpt.Options()
		set(&opts)
		cfg := sysConfig{approach: crossprefetch.CrossPredictOpt, memory: p.memory, lib: &opts}
		s.cells = append(s.cells, dbCell(name, value, cfg, p, lsm.MultiReadRandom, threads))
	}
	// PREFETCH_SIZE_VAR: the per-request cap.
	for _, mbCap := range []int64{4, 16, 64} {
		knob("prefetch-size", mb(mbCap<<20), func(o *crosslib.Options) { o.MaxPrefetchBytes = mbCap << 20 })
	}
	// NR_WORKERS_VAR: background helper threads.
	for _, w := range []int{1, 4, 8} {
		knob("workers", f0(float64(w)), func(o *crosslib.Options) { o.Workers = w })
	}
	// CROSS_BITMAP_SHIFT: range-tree node span (granularity of the
	// user-level bitmap locks).
	for _, span := range []int64{0, 1024, rangetree.DefaultSpan, 1 << 15} {
		name := "single-bitmap"
		if span > 0 {
			name = f0(float64(span)) + "-blocks"
		}
		knob("node-span", name, func(o *crosslib.Options) { o.RangeTreeSpan = span })
	}
	return s.run()
}
