// Command benchdiff compares two benchmark summaries, the JSON files that
// `bash bench/run.sh -repeat N -out FILE` writes (BENCH_PR<N>.json at the
// root, bench/baseline/BENCH_PR11.json), and prints the trajectory
// between them: one row per cell, each end-to-end metric's median as
// previous → current, then every move.
//
// Usage:
//
//	benchdiff OLD NEW
//
// Virtual metrics (virt_*) and the cells' virtual digests compare exactly:
// any difference is a move. A host metric moves when its median changes
// by more than its bound, the relative spread the files record for it.
// Each metric's better direction is read from BENCHMARK.json, found in the
// current directory or the nearest parent that has one. benchdiff exits 1
// when any metric moved the wrong way by more than its bound, and 2 on a
// usage or input error.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// summary is the part of a benchmark summary file that benchdiff reads.
type summary struct {
	Seed      int64  `json:"seed"`
	Repeats   int    `json:"repeats"`
	Nproc     int    `json:"nproc"`
	Workloads []cell `json:"workloads"`
}

// cell is one workload's record in a summary.
type cell struct {
	Workload string            `json:"workload"`
	Digests  []string          `json:"virt_digests"`
	EndToEnd map[string]spread `json:"end_to_end"`
}

// spread is one end-to-end metric over the repeats.
type spread struct {
	Median float64 `json:"median"`
	Bound  float64 `json:"bound"`
}

// metric is one end-to-end metric as BENCHMARK.json declares it.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

func main() {
	failed, err := run(os.Args[1:], os.Stdout)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	case failed:
		os.Exit(1)
	}
}

// run diffs the two files named in args onto w and reports whether a
// metric moved the wrong way beyond its bound.
func run(args []string, w io.Writer) (bool, error) {
	if len(args) != 2 {
		return false, errors.New("usage: benchdiff OLD NEW")
	}
	metrics, err := loadMetrics()
	if err != nil {
		return false, err
	}
	old, err := load(args[0])
	if err != nil {
		return false, err
	}
	cur, err := load(args[1])
	if err != nil {
		return false, err
	}
	return diff(w, args[0], args[1], old, cur, metrics), nil
}

// loadMetrics reads the end-to-end metric list from the nearest
// BENCHMARK.json at or above the current directory.
func loadMetrics() ([]metric, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec struct {
				EndToEnd []metric `json:"end_to_end"`
			}
			if err := json.Unmarshal(b, &spec); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			for _, m := range spec.EndToEnd {
				if m.Better != "higher" && m.Better != "lower" {
					return nil, fmt.Errorf("BENCHMARK.json: %s is better %q, want higher or lower", m.Name, m.Better)
				}
			}
			return spec.EndToEnd, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in the current directory or above")
		}
		dir = parent
	}
}

func load(path string) (*summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// diff prints the table and the moves, and reports whether any move was
// the wrong way beyond its bound.
func diff(w io.Writer, oldName, curName string, old, cur *summary, metrics []metric) (failed bool) {
	fmt.Fprintf(w, "%s → %s: seed %d → %d, %d → %d repeats, %d → %d cores, medians\n\n",
		oldName, curName, old.Seed, cur.Seed, old.Repeats, cur.Repeats, old.Nproc, cur.Nproc)
	header := []string{"cell"}
	for _, m := range metrics {
		header = append(header, m.Name)
	}
	fmt.Fprintf(w, "| %s |\n|%s\n", strings.Join(header, " | "), strings.Repeat("---|", len(header)))

	var moves []string
	for _, c := range cur.Workloads {
		i := slices.IndexFunc(old.Workloads, func(o cell) bool { return o.Workload == c.Workload })
		if i < 0 {
			moves = append(moves, fmt.Sprintf("%s: new cell", c.Workload))
			continue
		}
		o := old.Workloads[i]
		row := []string{"`" + c.Workload + "`"}
		for _, m := range metrics {
			a, aok := o.EndToEnd[m.Name]
			b, bok := c.EndToEnd[m.Name]
			if !aok || !bok {
				row = append(row, "–")
				if side := curName; aok != bok {
					if aok {
						side = oldName
					}
					moves = append(moves, fmt.Sprintf("%s %s: only in %s", c.Workload, m.Name, side))
				}
				continue
			}
			row = append(row, num(a.Median)+" → "+num(b.Median))
			if line, bad := move(m, a, b); line != "" {
				moves = append(moves, c.Workload+" "+line)
				failed = failed || bad
			}
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
		if !slices.Equal(o.Digests, c.Digests) {
			moves = append(moves, fmt.Sprintf("%s virt_digest: %s → %s", c.Workload, digests(o.Digests), digests(c.Digests)))
		}
	}
	for _, o := range old.Workloads {
		if !slices.ContainsFunc(cur.Workloads, func(c cell) bool { return c.Workload == o.Workload }) {
			moves = append(moves, fmt.Sprintf("%s: cell gone", o.Workload))
		}
	}

	fmt.Fprintln(w)
	if len(moves) == 0 {
		fmt.Fprintln(w, "no move")
	}
	for _, m := range moves {
		fmt.Fprintln(w, m)
	}
	return failed
}

// move describes metric m's move from a to b, or returns "" if it did not
// move: a virtual metric moves on any difference, a host metric only past
// its bound. bad reports a move the wrong way past the bound.
func move(m metric, a, b spread) (line string, bad bool) {
	if a.Median == b.Median {
		return "", false
	}
	bound := math.Max(a.Bound, b.Bound)
	rel := math.Inf(1)
	if a.Median != 0 {
		rel = (b.Median - a.Median) / math.Abs(a.Median)
	}
	virtual := strings.HasPrefix(m.Name, "virt_")
	if !virtual && math.Abs(rel) <= bound {
		return "", false
	}
	worse := (m.Better == "higher") == (b.Median < a.Median)
	verdict := "better"
	if worse {
		verdict = "worse"
		if math.Abs(rel) > bound {
			verdict, bad = "WORSE PAST BOUND", true
		}
	}
	return fmt.Sprintf("%s: %s → %s (%+.2f%%, bound %.0f%%) %s",
		m.Name, num(a.Median), num(b.Median), 100*rel, 100*bound, verdict), bad
}

// digests renders a cell's per-repeat digests, once if they agree.
func digests(ds []string) string {
	if len(ds) > 0 && !slices.ContainsFunc(ds, func(d string) bool { return d != ds[0] }) {
		return ds[0]
	}
	return strings.Join(ds, ",")
}

// num formats a median with four significant digits or one decimal,
// whichever shows more, and groups thousands with a space.
func num(v float64) string {
	decimals := 1
	switch a := math.Abs(v); {
	case a == 0:
		decimals = 0
	case a < 10:
		decimals = 3
	case a < 100:
		decimals = 2
	}
	s := fmt.Sprintf("%.*f", decimals, v)
	intPart, frac, _ := strings.Cut(s, ".")
	sign := ""
	if strings.HasPrefix(intPart, "-") {
		sign, intPart = "-", intPart[1:]
	}
	for i := len(intPart) - 3; i > 0; i -= 3 {
		intPart = intPart[:i] + " " + intPart[i:]
	}
	if frac != "" {
		return sign + intPart + "." + frac
	}
	return sign + intPart
}
