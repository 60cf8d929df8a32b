package experiments

import (
	"fmt"
	"strconv"

	crossprefetch "repro"
	"repro/internal/workload"
)

// microApproaches is the paper's Table 2 comparison set.
var microApproaches = []crossprefetch.Approach{
	crossprefetch.AppOnly,
	crossprefetch.OSOnly,
	crossprefetch.CrossPredict,
	crossprefetch.CrossPredictOpt,
	crossprefetch.CrossFetchAllOpt,
}

// microRow is one microbenchmark cell's row.
type microRow = row[workload.Result]

// microCells declares one cell per approach of approaches, each running
// RunMicro with cfg on a fresh system holding mem bytes; the rows are
// grouped by group.
func microCells(s *sweep[*microRow], group string, approaches []crossprefetch.Approach, mem int64, cfg workload.MicroConfig) {
	for _, a := range approaches {
		s.cells = append(s.cells, cellOf(group, a.String(), crossprefetch.Config{Approach: a, MemoryBytes: mem},
			func(sys *crossprefetch.System) (workload.Result, error) {
				c := cfg
				c.Sys = sys
				return workload.RunMicro(c)
			}))
	}
}

var (
	microReadMBs = metric("MB/s", "%.1f", func(r workload.Result) any { return r.ReadMBs })
	microMiss    = metric("miss%", "%.1f", func(r workload.Result) any { return r.MissPct })
	microLock    = metric("lock%", "%.1f", func(r workload.Result) any { return r.LockPct })
)

// Fig5 reproduces Figure 5 (microbenchmark throughput for private/shared ×
// sequential/random 16KB reads) together with Table 3 (average cache
// misses for the shared workloads). Paper scale: 200GB of data against
// 93GB of memory (2.15×), 16KB reads; here memory is scaled and the ratio
// preserved. Contract (Table 3's shape): cross-layered prefetching cuts
// shared-rand misses below APPonly's.
func Fig5(o Options) (*Report, error) {
	mem := int64(256<<20) / o.scale(4)
	total := mem * 215 / 100
	threads := 8
	if o.Quick {
		threads = 4
	}
	vs := vsFirst(func(r workload.Result) float64 { return r.ReadMBs })
	s := sweep[*microRow]{
		table: &Table{ID: "fig5", Title: "Microbenchmark: private/shared × seq/rand 16KB reads (+Table 3 miss rates)"},
		fields: append(labels[workload.Result]("workload", "approach"), microReadMBs, microMiss, microLock,
			metric("prefetch-calls", "%d", func(r workload.Result) any { return r.Metrics.Lib.PrefetchCalls }),
			metric("saved-calls", "%d", func(r workload.Result) any { return r.Metrics.Lib.SavedPrefetches }),
			vsCol[workload.Result]("vs-APPonly")),
		contract: func(rows []*microRow, at func(string) *microRow) error {
			app, cross := at("shared-rand/APPonly").res, at("shared-rand/CrossP[+predict]").res
			if cross.MissPct >= app.MissPct {
				return fmt.Errorf("shared-rand miss%%: CrossP %.1f not below APPonly %.1f", cross.MissPct, app.MissPct)
			}
			return vs(rows, at)
		},
	}
	s.table.Note("memory=%s data=%s (2.15x) threads=%d", mb(mem), mb(total), threads)
	for _, mode := range []struct {
		name        string
		shared, seq bool
	}{
		{"private-seq", false, true},
		{"private-rand", false, false},
		{"shared-seq", true, true},
		{"shared-rand", true, false},
	} {
		microCells(&s, mode.name, microApproaches, mem, workload.MicroConfig{
			Threads:    threads,
			IOSize:     16 << 10,
			TotalBytes: total,
			Shared:     mode.shared,
			Sequential: mode.seq,
			Seed:       o.Seed + 1,
		})
	}
	return s.run(o)
}

// Fig6 reproduces Figure 6: aggregated write throughput when concurrent
// readers (x-axis) and 4 writers share one large file, randomly accessing
// non-overlapping ranges. Paper: 128GB shared file. Contract: the writers
// move data beside 4 readers.
func Fig6(o Options) (*Report, error) {
	mem := int64(128<<20) / o.scale(4)
	fileBytes := mem * 2
	readerCounts := []int{4, 8, 16, 32}
	if o.Quick {
		readerCounts = []int{2, 4}
	}
	s := sweep[*microRow]{
		table: &Table{ID: "fig6", Title: "Shared file with 4 writers: aggregated write throughput vs reader count"},
		fields: append(labels[workload.Result]("readers", "approach"),
			metric("write-MB/s", "%.1f", func(r workload.Result) any { return r.WriteMBs }),
			metric("read-MB/s", "%.1f", func(r workload.Result) any { return r.ReadMBs }), microLock),
		contract: func(_ []*microRow, at func(string) *microRow) error {
			if w := at("4/OSonly").res.WriteMBs; w <= 0 {
				return fmt.Errorf("4 readers under OSonly: write throughput %.1f MB/s", w)
			}
			return nil
		},
	}
	s.table.Note("shared file=%s memory=%s writers=4", mb(fileBytes), mb(mem))
	for _, readers := range readerCounts {
		microCells(&s, strconv.Itoa(readers), microApproaches, mem, workload.MicroConfig{
			Threads:    readers,
			Writers:    4,
			IOSize:     16 << 10,
			TotalBytes: fileBytes,
			Shared:     true,
			Sequential: false,
			Seed:       o.Seed + 2,
		})
	}
	return s.run(o)
}

// Table4 reproduces Table 4: mmap sequential and random load throughput.
// Contract (its shape): APPonly, which madvises RANDOM, trails CrossPrefetch
// on the sequential load.
func Table4(o Options) (*Report, error) {
	mem := int64(256<<20) / o.scale(4)
	total := mem * 3 / 2
	threads := 4
	if o.Quick {
		threads = 2
	}
	s := sweep[*microRow]{
		table: &Table{ID: "tab4", Title: "mmap: sequential and random workloads (MB/s)"},
		fields: append(labels[workload.Result]("workload", "approach"), microReadMBs, microMiss,
			metric("faults", "%d", func(r workload.Result) any { return r.Metrics.MmapFaults })),
		contract: func(_ []*microRow, at func(string) *microRow) error {
			app, cross := at("readseq/APPonly").res, at("readseq/CrossP[+predict+opt]").res
			if app.ReadMBs >= cross.ReadMBs {
				return fmt.Errorf("mmap readseq: APPonly %.1f MB/s does not trail CrossP %.1f", app.ReadMBs, cross.ReadMBs)
			}
			return nil
		},
	}
	s.table.Note("memory=%s data=%s threads=%d", mb(mem), mb(total), threads)
	for _, mode := range []struct {
		name string
		seq  bool
	}{{"readseq", true}, {"readrandom", false}} {
		for _, a := range []crossprefetch.Approach{
			crossprefetch.AppOnly, crossprefetch.OSOnly, crossprefetch.CrossPredictOpt,
		} {
			s.cells = append(s.cells, cellOf(mode.name, a.String(), crossprefetch.Config{Approach: a, MemoryBytes: mem},
				func(sys *crossprefetch.System) (workload.Result, error) {
					return workload.RunMmap(workload.MmapConfig{
						Sys:        sys,
						Threads:    threads,
						TotalBytes: total,
						Sequential: mode.seq,
						Seed:       o.Seed + 3,
					})
				}))
		}
	}
	return s.run(o)
}
