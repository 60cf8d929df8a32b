package experiments

import (
	"fmt"
	"sync"

	crossprefetch "repro"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// The block-scheduler switch mirrors the telemetry one: crossbench flips
// it with -plug/-qd/-merge-window and every system built through newSys
// picks it up, overriding any per-cell scheduler settings.
var (
	schedMu  sync.Mutex
	schedCfg *SchedConfig
)

// SchedConfig configures the block-layer submission scheduler for
// systems built by subsequent experiment runs.
type SchedConfig struct {
	Plug             bool
	QueueDepth       int
	MergeWindowBytes int64
}

// EnableBlockSched installs a process-wide scheduler configuration for
// experiment systems (nil restores per-cell settings).
func EnableBlockSched(cfg *SchedConfig) {
	schedMu.Lock()
	defer schedMu.Unlock()
	schedCfg = cfg
}

func blockSched() *SchedConfig {
	schedMu.Lock()
	defer schedMu.Unlock()
	return schedCfg
}

// Batch measures what the block-layer scheduler buys: the same
// sequential multi-stream microbenchmark run with plugging off and on
// across queue depths. Plugging merges each stream's 2MB chunk train
// into MergeWindow-sized commands, so the device sees fewer commands
// (one CmdOverhead each) for identical byte totals; the table reports
// the command-count reduction and makespan side by side. The
// congestion cutoff is raised so both modes issue identical prefetch
// volume and the comparison is byte-for-byte.
func Batch(o Options) (*Report, error) {
	mem := int64(256<<20) / o.scale(4)
	total := mem / 2 // fits in cache: every byte moves exactly once
	threads := 4
	if o.Quick {
		threads = 2
	}
	s := sweep[*microRow]{
		table: &Table{ID: "batch", Title: "Block-layer plugging: device commands and makespan, plug off vs on"},
		fields: append(labels[workload.Result]("", "cell"),
			metric("read-cmds", "%d", func(r workload.Result) any { return r.Metrics.Device.ReadOps }),
			metric("read-MB", "%.1f", func(r workload.Result) any { return mbytes(r.Metrics.Device.ReadBytes) }),
			metric("merged-segs", "%d", func(r workload.Result) any { return r.Metrics.Device.MergedSegments }),
			metric("makespan-ms", "%.1f", func(r workload.Result) any {
				return float64(r.Makespan) / float64(simtime.Millisecond)
			}),
			microReadMBs, vsCol[workload.Result]("cmds-vs-off")),
		contract: vsFirst(func(r workload.Result) float64 { return float64(r.Metrics.Device.ReadOps) }),
	}
	s.table.Note("memory=%s data=%s threads=%d approach=%v", mb(mem), mb(total),
		threads, crossprefetch.CrossFetchAllOpt)
	cell := func(name string, plug bool, qd int) {
		cfg := sysConfig{
			approach:   crossprefetch.CrossFetchAllOpt,
			memory:     mem,
			plug:       plug,
			queueDepth: qd,
			congestion: simtime.Second,
		}
		s.cells = append(s.cells, cellOf("", name, cfg, func(sys *crossprefetch.System) (workload.Result, error) {
			return workload.RunMicro(workload.MicroConfig{
				Sys:        sys,
				Threads:    threads,
				IOSize:     16 << 10,
				TotalBytes: total,
				Shared:     false,
				Sequential: true,
				Seed:       o.Seed + 11,
			})
		}))
	}
	cell("plug-off", false, 0)
	for _, qd := range []int{1, 8, 32} {
		cell(fmt.Sprintf("plug-qd%d", qd), true, qd)
	}
	return s.run()
}
