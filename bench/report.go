package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	crossprefetch "repro"
)

// approach is the stack under test on every workload.
const approach = crossprefetch.CrossPredictOpt

// report is one run's outcome: the untraced run's end-to-end metrics, or
// the traced run's per-layer metrics.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Ops       int                `json:"ops"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"virt_digest"`
	HostRate  float64            `json:"host_ops_per_s"` // untraced run: printed beside the bounded metrics, too unsteady on a shared host to be one
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *report) specs() []metricSpec {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// runUntraced measures the end-to-end metrics: telemetry, tracing and
// scorecards off, one op in 32 byte-verified, three set-up-and-measure
// cycles.
func runUntraced(w *workload, p params) (*report, error) {
	ps, err := runCycles(w, p, approach, false, p.cycles(false))
	if err != nil {
		return nil, err
	}
	return &report{
		Workload: w.name, Seed: p.seed, Ops: ps.ops,
		Attempted: ps.attempted, Failed: ps.failed,
		Digest: ps.digest, HostRate: ps.hostRate(), Metrics: ps.endToEndMetrics(),
	}, nil
}

// runTraced produces the per-layer metrics. It runs the workload on the
// same seed untraced — the baseline the tracing overhead is taken against
// — then on fresh systems with telemetry, scorecards and 1-in-16 span
// sampling on, verifies every byte of the traced run, audits the stack's
// telemetry, probes each layer with the recorded access sample, and
// writes the benchmark's own spans to out/trace-<workload>.json.
func runTraced(w *workload, p params) (*report, error) {
	base, err := runCycles(w, p, approach, false, p.cycles(true))
	if err != nil {
		return nil, err
	}
	base.inst = nil // one live system at a time
	tr, err := runCycles(w, p, approach, true, p.cycles(true))
	if err != nil {
		return nil, err
	}
	// The per-layer numbers explain the end-to-end ones only if watching
	// the stack does not change what it does.
	if w.threads == 1 && tr.digest != base.digest {
		return nil, fmt.Errorf("%s: virt_digest %s traced, %s untraced: telemetry changed the virtual results", w.name, tr.digest, base.digest)
	}
	if err := tr.inst.sys.AuditTelemetry(); err != nil {
		return nil, fmt.Errorf("%s: telemetry audit: %w", w.name, err)
	}
	out := map[string]float64{}
	if err := tr.layerMetrics(out); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	tr.hostMetrics(out)

	out["telemetry.host_overhead_ratio"] = 1 - ratio(tr.hostRate(), base.hostRate())
	out["telemetry.alloc_overhead_per_op"] = tr.host[allocs] - base.host[allocs]
	out["bench.host_ops_per_s"] = base.hostRate()

	pr := newProber(tr, p.tiny)
	if err := pr.run(out); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	tr.inst = nil
	attempted, failed := base.attempted+tr.attempted, base.failed+tr.failed

	// Model fidelity: the same inputs on a plain kernel. A refactor that
	// erased the paper's effect would leave every bounded metric alone
	// and show only here.
	out["crosslib.virt_speedup_vs_osonly"] = 0
	if w.reference {
		ref, err := runPass(w, p, crossprefetch.OSOnly, false)
		if err != nil {
			return nil, fmt.Errorf("%s: OSOnly reference: %w", w.name, err)
		}
		out["crosslib.virt_speedup_vs_osonly"] = ratio(
			base.endToEndMetrics()["virt_mb_per_s"], ref.endToEndMetrics()["virt_mb_per_s"])
		attempted, failed = attempted+ref.attempted, failed+ref.failed
	}
	out["bench.failed_op_share"] = ratio(float64(failed), float64(attempted))

	if err := writeTrace(w.name, p.seed, tr, pr.spans); err != nil {
		return nil, err
	}
	return &report{
		Workload: w.name, Seed: p.seed, Traced: true, Ops: tr.ops,
		Attempted: attempted, Failed: failed,
		Digest: tr.digest, Metrics: out,
	}, nil
}

// hostMetrics fills the H-sourced metrics: host time of the benchmark's
// own calls into crosslib and lsm, per-kind virtual tails, and how late
// the open-loop generator ran.
func (ps *pass) hostMetrics(out map[string]float64) {
	var host [numCalls][]int32
	var late []int64
	var gets, puts []int64
	for _, l := range ps.logs {
		for c := range host {
			host[c] = append(host[c], l.host[c]...)
		}
		late = append(late, l.late...)
		for i, k := range l.kinds {
			switch k {
			case opGet:
				gets = append(gets, l.lat[i])
			case opPut:
				puts = append(puts, l.lat[i])
			}
		}
	}
	perOp := append(host[callReadAt], host[callRingBatch]...)
	out["crosslib.host_ns_per_op_p50"] = percentile32(perOp, 0.50)
	out["crosslib.host_ns_per_op_p99"] = percentile32(perOp, 0.99)
	out["lsm.host_ns_per_get_p50"] = percentile32(host[callGet], 0.50)
	out["lsm.host_ns_per_put_p50"] = percentile32(host[callPut], 0.50)
	slices.Sort(gets)
	slices.Sort(puts)
	slices.Sort(late)
	out["lsm.virt_get_p99_us"] = bandMean(gets, 0.985, 0.995) / 1e3
	out["lsm.virt_put_p99_us"] = bandMean(puts, 0.985, 0.995) / 1e3
	out["lsm.put_stall_max_us"] = 0
	if len(puts) > 0 {
		out["lsm.put_stall_max_us"] = float64(puts[len(puts)-1]) / 1e3
	}
	out["bench.gen_late_p99_us"] = bandMean(late, 0.985, 0.995) / 1e3
}

// writeTrace writes the benchmark's spans: every sampled op with the
// calls it made into a layer as children, then one span per probe. A
// layer's self time is its span minus the part its children cover.
func writeTrace(workload string, seed int64, ps *pass, probes []span) error {
	var spans []span
	for _, l := range ps.logs {
		base := int32(len(spans))
		for _, s := range l.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
	}
	for _, s := range probes {
		s.ID = int32(len(spans))
		spans = append(spans, s)
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join("out", "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// check verifies a report emits exactly its declared metrics, each finite.
func (r *report) check() error {
	specs := r.specs()
	if len(r.Metrics) != len(specs) {
		return fmt.Errorf("%s: %d metrics emitted, %d declared", r.Workload, len(r.Metrics), len(specs))
	}
	for _, m := range specs {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: declared metric %s not emitted", r.Workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, m.Name, v)
		}
	}
	return nil
}

// print writes the report for people, then the contract's result line:
// one JSON object, the last line of a single-run invocation's output.
func (r *report) print(w io.Writer) error {
	mode := "untraced: end-to-end"
	if r.Traced {
		mode = "traced: per-layer"
	}
	fmt.Fprintf(w, "== %s  seed=%d  ops=%d  %s\n", r.Workload, r.Seed, r.Ops, mode)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, m := range r.specs() {
		v := r.Metrics[m.Name]
		fmt.Fprintf(w, "  %-42s %16.6g %-8s %s is better\n", m.Name, v, m.Unit, m.Better)
		vals[m.Name] = value{v, m.Unit}
	}
	if !r.Traced {
		fmt.Fprintf(w, "  %-42s %16.6g %-8s higher is better (no bound: see bench.host_ops_per_s)\n", "host_ops_per_s", r.HostRate, "ops/s")
	}
	fmt.Fprintf(w, "  %-42s %16s\n", "virt_digest", r.Digest)
	fmt.Fprintf(w, "  %-42s %16d of %d\n", "failed ops", r.Failed, r.Attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
