package experiments

import (
	crossprefetch "repro"
	"repro/internal/filebench"
	"repro/internal/snappy"
	"repro/internal/ycsb"
)

// Fig8b reproduces Figure 8b: Filebench multi-instance workloads (seqread,
// randread, mongodb, videoserver) sharing one system. Paper: 16 instances,
// 160GB aggregate.
func Fig8b(o Options) (*Report, error) {
	s := o.scale(4)
	mem := int64(512<<20) / s
	perInstance := int64(64<<20) / s
	instances := 8
	opsPerThread := int64(192)
	if o.Quick {
		instances = 2
		opsPerThread = 48
	}

	sw := sweep[*row[filebench.Result]]{
		table: &Table{ID: "fig8b", Title: "Filebench multi-instance workloads"},
		fields: append(labels[filebench.Result]("workload", "approach"),
			metric("MB/s", "%.1f", func(r filebench.Result) any { return r.MBPerSec }),
			metric("ops/s", "%.0f", func(r filebench.Result) any { return r.OpsPerSec }),
			metric("miss%", "%.1f", func(r filebench.Result) any { return r.MissPct }),
			vsCol[filebench.Result]("vs-APPonly")),
		contract: vsFirst(func(r filebench.Result) float64 { return r.MBPerSec }),
	}
	sw.table.Note("instances=%d dataset=%s/instance memory=%s", instances, mb(perInstance), mb(mem))
	for _, p := range filebench.Profiles() {
		for _, a := range microApproaches {
			sw.cells = append(sw.cells, cellOf(string(p), a.String(), crossprefetch.Config{Approach: a, MemoryBytes: mem},
				func(sys *crossprefetch.System) (filebench.Result, error) {
					return filebench.Run(filebench.Config{
						Sys:                sys,
						Profile:            p,
						Instances:          instances,
						ThreadsPerInstance: 2,
						BytesPerInstance:   perInstance,
						OpsPerThread:       opsPerThread,
						Seed:               o.Seed + 21,
					})
				}))
		}
	}
	return sw.run(o)
}

// Fig9a reproduces Figure 9a: YCSB workloads A–F with 8 client threads
// (2 at -quick; the paper runs 16) and 4KB values over the LSM store.
func Fig9a(o Options) (*Report, error) {
	records := max(int64(40_000_000)/(o.scale(2)*1024), 1500)
	mem := records * 4096 * 2 / 3 // memory holds ~2/3 of the dataset
	threads := 8
	ops := records / int64(threads) / 2
	if o.Quick {
		threads = 2
		ops = 200
	}

	s := sweep[*row[ycsb.Result]]{
		table: &Table{ID: "fig9a", Title: "YCSB A-F over the LSM store"},
		fields: append(labels[ycsb.Result]("workload", "approach"),
			metric("kops/s", "%.1f", func(r ycsb.Result) any { return r.KopsPerSec }),
			metric("miss%", "%.1f", func(r ycsb.Result) any { return r.MissPct }),
			vsCol[ycsb.Result]("vs-APPonly")),
		contract: vsFirst(func(r ycsb.Result) float64 { return r.KopsPerSec }),
	}
	s.table.Note("records=%d value=4KB memory=%s threads=%d", records, mb(mem), threads)
	for _, w := range ycsb.All() {
		for _, a := range []crossprefetch.Approach{
			crossprefetch.AppOnly, crossprefetch.OSOnly,
			crossprefetch.CrossPredictOpt, crossprefetch.CrossFetchAllOpt,
		} {
			s.cells = append(s.cells, cellOf(w.String(), a.String(), crossprefetch.Config{Approach: a, MemoryBytes: mem},
				func(sys *crossprefetch.System) (ycsb.Result, error) {
					return ycsb.Run(w, ycsb.Config{
						Sys:          sys,
						DB:           dbOptions(),
						Records:      records,
						ValueBytes:   4096,
						Threads:      threads,
						OpsPerThread: ops,
						Seed:         o.Seed + 31,
					})
				}))
		}
	}
	return s.run(o)
}

// Fig9b reproduces Figure 9b: Snappy parallel compression as the
// memory:dataset ratio varies from 1:6 to 1:1. Paper: 120GB of 100MB
// files, 16 threads.
func Fig9b(o Options) (*Report, error) {
	fileBytes := int64(16<<20) / o.scale(4)
	files := 24
	threads := 8
	ratios := memRatios
	if o.Quick {
		files = 8
		threads = 2
		ratios = ratios[1:3]
	}
	dataset := fileBytes * int64(files)

	s := sweep[*row[snappy.AppResult]]{
		table: &Table{ID: "fig9b", Title: "Snappy parallel compression vs memory:dataset ratio"},
		fields: append(labels[snappy.AppResult]("mem:data", "approach"),
			metric("MB/s", "%.1f", func(r snappy.AppResult) any { return r.MBPerSec }),
			metric("miss%", "%.1f", func(r snappy.AppResult) any { return r.MissPct }),
			metric("evicted-lib", "%d", func(r snappy.AppResult) any { return r.Metrics.Lib.EvictedPages }),
			vsCol[snappy.AppResult]("vs-APPonly")),
		contract: vsFirst(func(r snappy.AppResult) float64 { return r.MBPerSec }),
	}
	s.table.Note("files=%d x %s threads=%d", files, mb(fileBytes), threads)
	for _, r := range ratios {
		for _, a := range microApproaches {
			s.cells = append(s.cells, cellOf(r.name, a.String(), crossprefetch.Config{Approach: a, MemoryBytes: dataset / r.den},
				func(sys *crossprefetch.System) (snappy.AppResult, error) {
					return snappy.RunApp(snappy.AppConfig{
						Sys:       sys,
						Files:     files,
						FileBytes: fileBytes,
						Threads:   threads,
					})
				}))
		}
	}
	return s.run(o)
}
