package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// spread is one workload × end-to-end metric over the repeats.
type spread struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	// Spread is (max − min) ÷ median, to hold against Bound.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
}

type repeatWorkload struct {
	Workload  string             `json:"workload"`
	Ops       int                `json:"ops"`
	Digests   []string           `json:"virt_digests"`
	HostRates []float64          `json:"host_ops_per_s"` // per repeat; recorded, not held to a bound
	EndToEnd  map[string]spread  `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
}

// runRepeat runs the set n times untraced on one seed, then once traced,
// and holds every end-to-end metric's spread against its own bound: two
// runs of the same code must agree within the margin a regression is
// judged by, and the single-timeline workloads must reproduce their
// virtual digest exactly.
func runRepeat(set []workload, p params, n int, outFile string) error {
	doc := struct {
		Seed      int64            `json:"seed"`
		Seconds   int              `json:"seconds"`
		Repeats   int              `json:"repeats"`
		Nproc     int              `json:"nproc"`
		GoVersion string           `json:"go_version"`
		Commit    string           `json:"commit"`
		Workloads []repeatWorkload `json:"workloads"`
	}{p.seed, p.seconds, n, runtime.NumCPU(), runtime.Version(), commit(), nil}

	var bad []string
	for i := range set {
		w := &set[i]
		rw := repeatWorkload{Workload: w.name, EndToEnd: map[string]spread{}}
		values := map[string][]float64{}
		for r := 0; r < n; r++ {
			rep, err := runOne(w, p, false)
			if err != nil {
				return err
			}
			rw.Ops = rep.Ops
			rw.Attempted += rep.Attempted
			rw.Failed += rep.Failed
			rw.Digests = append(rw.Digests, rep.Digest)
			rw.HostRates = append(rw.HostRates, rep.HostRate)
			for k, v := range rep.Metrics {
				values[k] = append(values[k], v)
			}
			if w.threads == 1 && rep.Digest != rw.Digests[0] {
				bad = append(bad, fmt.Sprintf("%s: virt_digest %s on repeat %d, %s on repeat 0", w.name, rep.Digest, r, rw.Digests[0]))
			}
		}
		fmt.Printf("== %s  seed=%d  ops=%d  %d repeats\n", w.name, p.seed, rw.Ops, n)
		for _, m := range endToEnd {
			v := values[m.Name]
			sort.Float64s(v)
			s := spread{Min: v[0], Median: median(v), Max: v[len(v)-1], Bound: m.Bound}
			s.Spread = ratio(s.Max-s.Min, s.Median)
			rw.EndToEnd[m.Name] = s
			verdict := "ok"
			// As in the driver's own check, setup_s is shown but not held to
			// its bound here: a set-up is a fraction of a second of host
			// time, and its bound is for medians of many runs.
			if s.Spread > m.Bound && m.Name != "setup_s" {
				verdict = "SPREAD EXCEEDS BOUND"
				bad = append(bad, fmt.Sprintf("%s: %s spread %.4f exceeds bound %.2f", w.name, m.Name, s.Spread, m.Bound))
			}
			fmt.Printf("  %-28s min %-14.6g median %-14.6g max %-14.6g spread %.4f  bound %.2f  %s\n",
				m.Name, s.Min, s.Median, s.Max, s.Spread, m.Bound, verdict)
		}
		fmt.Printf("  %-28s %.6g (no bound)\n", "host_ops_per_s", rw.HostRates)
		fmt.Printf("  %-28s %s\n", "virt_digest", strings.Join(rw.Digests, " "))

		rep, err := runOne(w, p, true)
		if err != nil {
			return err
		}
		rw.PerLayer = rep.Metrics
		rw.Attempted += rep.Attempted
		rw.Failed += rep.Failed
		if rw.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d of %d ops failed", w.name, rw.Failed, rw.Attempted))
		}
		doc.Workloads = append(doc.Workloads, rw)
	}
	if outFile != "" {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outFile, append(out, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("repeat check failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// commit names the checkout for the baseline file; empty outside git.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
