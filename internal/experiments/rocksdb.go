package experiments

import (
	"fmt"
	"strconv"

	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/lsm"
)

// dbParams derives the scaled database sizing for the LSM experiments.
// Paper: 40M keys ≈ 120GB (≈3KB/key), 80GB of memory.
type dbParams struct {
	keys       int64
	valueBytes int
	memory     int64
	opsFactor  int64 // ops per thread = keys/threads/opsFactor (at least 64)
	seed       int64
}

func defaultDBParams(o Options, scale int64) dbParams {
	s := o.scale(scale)
	p := dbParams{
		keys:       40_000_000 / (s * 512),
		valueBytes: 3072,
		memory:     (80 << 30) / (s * 512),
		opsFactor:  2,
		seed:       o.Seed + 11,
	}
	if p.keys < 2000 {
		p.keys = 2000
	}
	if p.memory < 8<<20 {
		p.memory = 8 << 20
	}
	return p
}

func dbOptions() lsm.Options {
	return lsm.Options{MemtableBytes: 1 << 20, BlockBytes: 16 << 10}
}

// dbRow is one db_bench cell's row.
type dbRow = row[lsm.BenchResult]

// The db_bench tables' metric columns.
var (
	dbKops     = metric("kops/s", "%.0f", func(r lsm.BenchResult) any { return r.KopsPerSec })
	dbMBs      = metric("MB/s", "%.1f", func(r lsm.BenchResult) any { return r.MBPerSec })
	dbMiss     = metric("miss%", "%.1f", func(r lsm.BenchResult) any { return r.MissPct })
	dbEvicted  = metric("evicted-lib", "%d", func(r lsm.BenchResult) any { return r.Metrics.Lib.EvictedPages })
	dbPrefetch = metric("prefetch-calls", "%d", func(r lsm.BenchResult) any { return r.Metrics.Lib.PrefetchCalls })
	dbSaved    = metric("saved-calls", "%d", func(r lsm.BenchResult) any { return r.Metrics.Lib.SavedPrefetches })
	dbVs       = vsCol[lsm.BenchResult]("vs-APPonly")
	dbVsFirst  = vsFirst(func(r lsm.BenchResult) float64 { return r.KopsPerSec })
)

// dbCell declares one db_bench cell: workload w on threads threads over
// a fresh system from cfg.
func dbCell(group, name string, cfg crossprefetch.Config, p dbParams, w lsm.Workload, threads int) sweepCell[*dbRow] {
	ops := max(p.keys/int64(threads)/p.opsFactor, 64)
	return cellOf(group, name, cfg, func(sys *crossprefetch.System) (lsm.BenchResult, error) {
		return lsm.RunBench(lsm.BenchConfig{
			Sys:          sys,
			DB:           dbOptions(),
			NumKeys:      p.keys,
			ValueBytes:   p.valueBytes,
			Threads:      threads,
			Workload:     w,
			OpsPerThread: ops,
			Seed:         p.seed,
		})
	})
}

// multiReadRandom is the db_bench table of one multireadrandom cell per
// approach, on threads threads under cfg (its approach set per cell),
// whose rows are grouped by group.
func multiReadRandom(s *sweep[*dbRow], group string, approaches []crossprefetch.Approach, cfg crossprefetch.Config, p dbParams, threads int) {
	for _, a := range approaches {
		cfg.Approach = a
		s.cells = append(s.cells, dbCell(group, a.String(), cfg, p, lsm.MultiReadRandom, threads))
	}
}

// dbThreads is the thread count of the 16-thread db_bench tables (the
// paper runs 32).
func dbThreads(o Options) int {
	if o.Quick {
		return 4
	}
	return 16
}

// Fig2 reproduces the motivation analysis (Figure 2 + Table 1): LSM
// multireadrandom with 16 threads (4 at -quick; the paper runs 32) where
// the data fits in memory, comparing APPonly, APPonly[fincore], OSonly,
// and CrossPrefetch, reporting throughput plus lock overhead and
// cache-miss percentages. Contract: CrossPrefetch beats APPonly.
func Fig2(o Options) (*Report, error) {
	p := defaultDBParams(o, 2)
	p.memory = p.memory * 2 // paper: 100GB data fits in 128GB memory
	threads := dbThreads(o)
	s := sweep[*dbRow]{
		table: &Table{ID: "fig2", Title: "Motivation: multireadrandom with data fitting in memory (+Table 1)"},
		fields: append(labels[lsm.BenchResult]("", "approach"), dbKops,
			metric("lock%", "%.1f", func(r lsm.BenchResult) any { return r.LockPct }), dbMiss,
			metric("prefetch-syscalls", "%d", func(r lsm.BenchResult) any { return r.Metrics.Prefetch })),
		contract: func(_ []*dbRow, at func(string) *dbRow) error {
			app, cross := at("APPonly").res, at("CrossP[+predict+opt]").res
			if cross.KopsPerSec <= app.KopsPerSec {
				return fmt.Errorf("CrossP %.0f kops does not beat APPonly %.0f", cross.KopsPerSec, app.KopsPerSec)
			}
			return nil
		},
	}
	s.table.Note("keys=%d value=%dB memory=%s threads=%d", p.keys, p.valueBytes, mb(p.memory), threads)
	multiReadRandom(&s, "", []crossprefetch.Approach{
		crossprefetch.AppOnly, crossprefetch.AppOnlyFincore,
		crossprefetch.OSOnly, crossprefetch.CrossPredictOpt,
	}, crossprefetch.Config{MemoryBytes: p.memory}, p, threads)
	return s.run(o)
}

// dbApproaches is the five-way comparison used by Figures 7 and 8a.
var dbApproaches = []crossprefetch.Approach{
	crossprefetch.AppOnly,
	crossprefetch.OSOnly,
	crossprefetch.CrossPredict,
	crossprefetch.CrossPredictOpt,
	crossprefetch.CrossFetchAllOpt,
}

// Fig7a reproduces Figure 7a: multireadrandom throughput vs thread count.
func Fig7a(o Options) (*Report, error) {
	p := defaultDBParams(o, 2)
	threadCounts := []int{1, 4, 16, 32}
	if o.Quick {
		threadCounts = []int{2, 4}
	}
	s := sweep[*dbRow]{
		table:    &Table{ID: "fig7a", Title: "db_bench multireadrandom: throughput vs thread count"},
		fields:   append(labels[lsm.BenchResult]("threads", "approach"), dbKops, dbMiss, dbVs),
		contract: dbVsFirst,
	}
	s.table.Note("keys=%d value=%dB memory=%s", p.keys, p.valueBytes, mb(p.memory))
	for _, threads := range threadCounts {
		multiReadRandom(&s, strconv.Itoa(threads), dbApproaches, crossprefetch.Config{MemoryBytes: p.memory}, p, threads)
	}
	return s.run(o)
}

// dbPatterns are Figure 7b's access patterns.
var dbPatterns = []lsm.Workload{
	lsm.ReadSeq, lsm.ReadRandom, lsm.ReadReverse, lsm.ReadScan, lsm.MultiReadRandom,
}

// patternTable runs the 7b-style pattern × approach grid for a layout and
// device.
func patternTable(o Options, id, title string, layout crossprefetch.Layout, dev blockdev.Config) (*Report, error) {
	p := defaultDBParams(o, 2)
	threads := dbThreads(o)
	s := sweep[*dbRow]{
		table:    &Table{ID: id, Title: title},
		fields:   append(labels[lsm.BenchResult]("pattern", "approach"), dbKops, dbMBs, dbMiss, dbVs),
		contract: dbVsFirst,
	}
	s.table.Note("keys=%d value=%dB memory=%s threads=%d", p.keys, p.valueBytes, mb(p.memory), threads)
	for _, w := range dbPatterns {
		for _, a := range dbApproaches {
			cfg := crossprefetch.Config{Approach: a, MemoryBytes: p.memory, Layout: layout, Device: dev}
			s.cells = append(s.cells, dbCell(string(w), a.String(), cfg, p, w, threads))
		}
	}
	return s.run(o)
}

// Fig7b reproduces Figure 7b: access patterns on local NVMe + ext4.
func Fig7b(o Options) (*Report, error) {
	return patternTable(o, "fig7b", "db_bench access patterns (ext4, local NVMe, 16 threads)",
		crossprefetch.LayoutExt4, blockdev.Config{})
}

// Fig7d reproduces Figure 7d: the same patterns on F2FS.
func Fig7d(o Options) (*Report, error) {
	return patternTable(o, "fig7d", "db_bench access patterns on F2FS (16 threads)",
		crossprefetch.LayoutF2FS, blockdev.Config{})
}

// Fig8a reproduces Figure 8a: the same patterns on remote NVMe-oF storage.
func Fig8a(o Options) (*Report, error) {
	return patternTable(o, "fig8a", "db_bench access patterns on remote NVMe-oF (16 threads)",
		crossprefetch.LayoutExt4, blockdev.RemoteNVMeConfig())
}

// Fig7c reproduces Figure 7c: multireadrandom as the memory:DB ratio
// varies from 1:6 to 1:1.
func Fig7c(o Options) (*Report, error) {
	p := defaultDBParams(o, 2)
	dbBytes := p.keys * int64(p.valueBytes+32)
	threads := dbThreads(o)
	s := sweep[*dbRow]{
		table:  &Table{ID: "fig7c", Title: "db_bench multireadrandom vs memory:DB ratio"},
		fields: append(labels[lsm.BenchResult]("mem:db", "approach"), dbKops, dbMiss, dbEvicted),
	}
	s.table.Note("db=%s threads=%d", mb(dbBytes), threads)
	for _, r := range memRatios {
		multiReadRandom(&s, r.name, dbApproaches, crossprefetch.Config{MemoryBytes: dbBytes / r.den}, p, threads)
	}
	return s.run(o)
}

// memRatios are the memory:dataset ratios of Figures 7c and 9b.
var memRatios = []struct {
	name string
	den  int64
}{{"1:6", 6}, {"1:4", 4}, {"1:2", 2}, {"1:1", 1}}

// Table5 reproduces Table 5: the incremental breakdown of CrossPrefetch's
// gains on 16-thread multireadrandom (4 at -quick; the paper runs 32).
func Table5(o Options) (*Report, error) {
	p := defaultDBParams(o, 2)
	threads := dbThreads(o)
	s := sweep[*dbRow]{
		table:  &Table{ID: "tab5", Title: "Breakdown of incremental gains (multireadrandom)"},
		fields: append(labels[lsm.BenchResult]("", "configuration"), dbKops, dbMiss, dbPrefetch, dbSaved),
	}
	s.table.Note("keys=%d memory=%s threads=%d", p.keys, mb(p.memory), threads)
	cfg := crossprefetch.Config{MemoryBytes: p.memory}
	multiReadRandom(&s, "", []crossprefetch.Approach{
		crossprefetch.AppOnly,
		crossprefetch.OSOnly,
		crossprefetch.CrossVisibility,
	}, cfg, p, threads)
	// "+range tree" is CrossPredict's configuration under the paper's label.
	cfg.Approach = crossprefetch.CrossPredict
	s.cells = append(s.cells, dbCell("", "CrossP[+visibility+rangetree]", cfg, p, lsm.MultiReadRandom, threads))
	multiReadRandom(&s, "", []crossprefetch.Approach{crossprefetch.CrossPredictOpt}, cfg, p, threads)
	return s.run(o)
}

// Fig10 reproduces Figure 10: multireadrandom as the kernel prefetch limit
// sweeps from 32KB to 8MB — raising the limit alone does not buy
// CrossPrefetch's gains.
func Fig10(o Options) (*Report, error) {
	p := defaultDBParams(o, 2)
	threads := dbThreads(o)
	limits := []int64{32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20}
	if o.Quick {
		limits = []int64{128 << 10, 2 << 20}
	}
	s := sweep[*dbRow]{
		table:  &Table{ID: "fig10", Title: "Prefetch-limit sensitivity (multireadrandom)"},
		fields: append(labels[lsm.BenchResult]("limit", "approach"), dbKops, dbMiss),
	}
	s.table.Note("keys=%d memory=%s threads=%d", p.keys, mb(p.memory), threads)
	for _, lim := range limits {
		multiReadRandom(&s, mbOrKB(lim), []crossprefetch.Approach{
			crossprefetch.AppOnly, crossprefetch.OSOnly, crossprefetch.CrossPredictOpt,
		}, crossprefetch.Config{MemoryBytes: p.memory, KernelRAMaxBytes: lim}, p, threads)
	}
	return s.run(o)
}

func mbOrKB(v int64) string {
	if v >= 1<<20 {
		return f0(float64(v>>20)) + "MB"
	}
	return f0(float64(v>>10)) + "KB"
}
