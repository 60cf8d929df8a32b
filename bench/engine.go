package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"time"

	crossprefetch "repro"
	"repro/internal/simtime"
)

// params selects one run.
type params struct {
	seed    int64
	seconds int
	tiny    bool
}

// cycles is how many times a run sets its workload up and measures it,
// each time on a fresh system built from the same arguments: three for an
// end-to-end run, whose host metrics are medians over the cycles (see
// runCycles); two for each side of a traced run's overhead comparison,
// which measures the workload three ways and has a time budget to keep.
// The smoke test's scale runs one fewer.
func (p params) cycles(traced bool) int {
	n := 3
	if traced {
		n--
	}
	if p.tiny {
		n--
	}
	return n
}

// tinyOps is the measured op count at -scale tiny: enough for every
// layer to do some work, small enough to run under the race detector.
const tinyOps = 200

// measuredOps is the op count of one measured phase: fixed by the
// arguments, so that every virtual number is too, and the same on every
// thread.
func (w *workload) measuredOps(p params) int {
	ops := w.ops * p.seconds / runSeconds
	if p.tiny {
		ops = tinyOps
	}
	return ops / w.threads * w.threads
}

// pass is one set-up, warm-up and measured phase of one workload on one
// system.
type pass struct {
	w      *workload
	traced bool
	inst   *instance
	logs   []*opLog
	epoch  time.Time

	ops       int
	attempted int64 // ops run and checked; runCycles sums every cycle's
	failed    int64 // of those, how many erred or returned wrong bytes
	bytes     int64
	ph        phase
	host      hostCost // this cycle's; runCycles replaces it with the medians
	lat       []int64  // every op's virtual latency, sorted
	digest    string

	before, after *layerSnap // traced only
}

// hostCost is what one cycle cost on the host clock and in the Go heap,
// indexed by the constants below.
type hostCost [numCosts]float64

const (
	setupS     = iota // system build through the warm-up prefix
	wallS             // the whole measured phase, first op to last
	allocs            // mallocs per op over the measured phase
	allocKB           // KB allocated per op over the measured phase
	liveHeapMB        // heap in use after the phase and a forced GC
	numCosts
)

// runCycles measures a workload n times over, each on a fresh system set
// up from the same arguments, and returns the last pass with every host
// number replaced by its median over the cycles. Each cycle's wall time is
// the whole measured phase — garbage collection, compactions and every
// other cost the ops incur included — so anything that makes the ops
// slower on every cycle moves the median. A single-timeline workload must
// also reproduce its virtual digest on every repeat.
func runCycles(w *workload, p params, approach crossprefetch.Approach, traced bool, n int) (*pass, error) {
	var last *pass
	var costs []hostCost
	var attempted, failed int64
	for c := 0; c < n; c++ {
		if last != nil {
			last.inst, last.logs, last.lat = nil, nil, nil // one live system, one set of logs at a time
		}
		ps, err := runPass(w, p, approach, traced)
		if err != nil {
			return nil, err
		}
		if last != nil && w.threads == 1 && ps.digest != last.digest {
			return nil, fmt.Errorf("%s: virt_digest %s on repeat %d, %s before it: the same inputs gave different virtual results",
				w.name, ps.digest, c, last.digest)
		}
		costs = append(costs, ps.host)
		attempted += ps.attempted
		failed += ps.failed
		last = ps
	}
	for k := range last.host {
		v := make([]float64, len(costs))
		for i, c := range costs {
			v[i] = c[k]
		}
		last.host[k] = median(v)
	}
	last.attempted, last.failed = attempted, failed
	return last, nil
}

// hostRate is ops per host second of the measured phase.
func (ps *pass) hostRate() float64 { return float64(ps.ops) / ps.host[wallS] }

// runPass sets a workload up, runs the untimed warm-up prefix, and
// measures ops operations.
func runPass(w *workload, p params, approach crossprefetch.Approach, traced bool) (*pass, error) {
	ops := w.measuredOps(p)
	warmOps := ops / 10 / w.threads * w.threads
	e := &env{
		seed: p.seed, traced: traced, tiny: p.tiny, approach: approach,
		// Every op, warm-up included, may also spawn background-prefetch
		// roots; twice the op count is room for all of them at 1-in-16.
		keepRoots: 2 * (ops + warmOps),
	}
	ps := &pass{w: w, traced: traced, ops: ops, attempted: int64(ops)}
	runtime.GC() // an earlier pass's system is garbage; do not bill it to this set-up
	t0 := time.Now()
	inst, err := w.build(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if _, err := inst.run(warmOps, ps.newLogs(warmOps, false)); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	ps.host[setupS] = time.Since(t0).Seconds()
	ps.inst = inst

	runtime.GC()
	ps.epoch = time.Now()
	ps.logs = ps.newLogs(ops, traced)
	if traced {
		ps.before = snapshotLayers(ps.inst)
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ph, err := ps.inst.run(ops, ps.logs)
	ps.host[wallS] = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	ps.ph = ph
	if traced {
		ps.after = snapshotLayers(ps.inst)
	}
	// The virtual clock's accounting must close: every nanosecond of the
	// measured timelines is CPU, I/O wait or lock wait.
	if a := ph.acct; a.CPU+a.IOWait+a.LockWait != a.Elapsed {
		return nil, fmt.Errorf("%s: timeline accounting open: cpu %d + io %d + lock %d != elapsed %d",
			w.name, a.CPU, a.IOWait, a.LockWait, a.Elapsed)
	}
	ps.host[allocs] = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	ps.host[allocKB] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(ops)

	for _, l := range ps.logs {
		if l.n != ops/w.threads {
			return nil, fmt.Errorf("%s: thread logged %d ops, want %d", w.name, l.n, ops/w.threads)
		}
		ps.failed += l.failed
		ps.bytes += l.bytes
		ps.lat = append(ps.lat, l.lat...)
	}
	slices.Sort(ps.lat)
	ps.digest = ps.virtDigest()

	// Live heap with the system still referenced: state that grows with
	// the ops run, rather than with the data, shows here.
	runtime.GC()
	runtime.ReadMemStats(&m2)
	ps.host[liveHeapMB] = float64(m2.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(ps.inst)
	return ps, nil
}

func (ps *pass) newLogs(ops int, traced bool) []*opLog {
	logs := make([]*opLog, ps.w.threads)
	for i := range logs {
		logs[i] = newOpLog(ops/ps.w.threads, traced, ps.epoch)
	}
	return logs
}

// virtDigest fingerprints what the modelled stack did: a host-only change
// must leave it identical. It is exact on single-timeline workloads.
func (ps *pass) virtDigest() string {
	m := ps.inst.sys.Metrics()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%+v|%+v|%+v", ps.ops, ps.bytes, ps.ph.end, m.Cache, m.Device, m.Lib)
	return fmt.Sprintf("%016x", h.Sum64())
}

// endToEndMetrics computes the bounded metrics of an untraced pass.
func (ps *pass) endToEndMetrics() map[string]float64 {
	mk := ps.ph.makespan()
	return map[string]float64{
		"virt_mb_per_s":    simtime.Throughput(ps.bytes, mk),
		"virt_op_p50_us":   bandMean(ps.lat, 0.45, 0.55) / 1e3,
		"virt_op_p99_us":   bandMean(ps.lat, 0.985, 0.995) / 1e3,
		"virt_makespan_ms": float64(mk) / 1e6,
		// Allocation per op is 0 on the resident workload and a bounded
		// metric may never be, so both are carried one up: the bound is a
		// share of 1 + the value.
		"host_allocs_per_op_plus1":   1 + ps.host[allocs],
		"host_alloc_kb_per_op_plus1": 1 + ps.host[allocKB],
		"host_live_heap_mb":          ps.host[liveHeapMB],
		"setup_s":                    ps.host[setupS],
	}
}

// bandMean is a quantile smoothed over a band of ranks: the mean of the
// sorted samples between quantiles lo and hi. The model charges integer
// cost steps, so a raw percentile sits on one step and flips to the next
// as a whole; the band mean moves in proportion.
func bandMean(sorted []int64, lo, hi float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(lo * float64(len(sorted)))
	j := int(math.Ceil(hi * float64(len(sorted))))
	if j <= i {
		j = i + 1
	}
	if j > len(sorted) {
		j = len(sorted)
	}
	var sum float64
	for _, v := range sorted[i:j] {
		sum += float64(v)
	}
	return sum / float64(j-i)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// percentile32 reports the q-quantile of host-time samples.
func percentile32(v []int32, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return float64(s[int(q*float64(len(s)-1))])
}
