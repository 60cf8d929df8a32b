package experiments

import (
	crossprefetch "repro"
	"repro/internal/lsm"
)

// Ablation sweeps the artifact's NR_WORKERS_VAR knob (§A.6, background
// helper threads) on the 16-thread multireadrandom workload, relative to
// the default CrossP[+predict+opt] configuration. The artifact's other two
// knobs, PREFETCH_SIZE_VAR (per-request prefetch cap) and
// CROSS_BITMAP_SHIFT (range-tree node granularity), printed the same row
// at every value, at -quick and at full scale, so they are not swept.
func Ablation(o Options) (*Report, error) {
	p := defaultDBParams(o, 2)
	p.seed = o.Seed + 51
	threads := dbThreads(o)
	s := sweep[*dbRow]{
		table:  &Table{ID: "ablate", Title: "Ablation of CROSS-LIB tunables (multireadrandom)"},
		fields: append(labels[lsm.BenchResult]("knob", "value"), dbKops, dbMiss, dbPrefetch, dbSaved),
	}
	s.table.Note("keys=%d memory=%s threads=%d approach=CrossP[+predict+opt]", p.keys, mb(p.memory), threads)

	for _, w := range []int{1, 4, 8} {
		opts := crossprefetch.CrossPredictOpt.Options()
		opts.Workers = w
		cfg := sysConfig{approach: crossprefetch.CrossPredictOpt, memory: p.memory, lib: &opts}
		s.cells = append(s.cells, dbCell("workers", f0(float64(w)), cfg, p, lsm.MultiReadRandom, threads))
	}
	return s.run()
}
