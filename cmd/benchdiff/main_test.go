package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baseline = "../../bench/baseline/BENCH_PR11.json"

// doctored writes a copy of the baseline with edit applied to its cells.
func doctored(t *testing.T, edit func(c *cell)) string {
	t.Helper()
	b, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	for i := range s.Workloads {
		edit(&s.Workloads[i])
	}
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "new.json")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func diffOf(t *testing.T, oldPath, newPath string) (string, bool) {
	t.Helper()
	var out bytes.Buffer
	failed, err := run([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), failed
}

// A file diffed against itself prints its table and no move.
func TestSelfDiffPrintsNoMove(t *testing.T) {
	out, failed := diffOf(t, baseline, baseline)
	if failed || !strings.HasSuffix(out, "\nno move\n") {
		t.Fatalf("failed=%v, output:\n%s", failed, out)
	}
	if !strings.Contains(out, "| `warm_point_read` | 3 892.7 → 3 892.7 |") {
		t.Errorf("no warm_point_read row:\n%s", out)
	}
}

// One more allocation per op on one cell moves its allocs/op past the
// bound the wrong way and fails the diff; a host metric inside its bound
// and a virtual one that got better are not failures.
func TestMovesAgainstTheirBounds(t *testing.T) {
	path := doctored(t, func(c *cell) {
		set := func(name string, f func(float64) float64) {
			s := c.EndToEnd[name]
			s.Median = f(s.Median)
			c.EndToEnd[name] = s
		}
		switch c.Workload {
		case "warm_point_read":
			set("host_allocs_per_op_plus1", func(v float64) float64 { return v + 1 })
		case "seq_cold_scan":
			set("setup_s", func(v float64) float64 { return v * 1.1 })        // bound 25 %
			set("virt_mb_per_s", func(v float64) float64 { return v * 1.01 }) // better
			c.Digests = []string{"x", "x"}
		}
	})
	out, failed := diffOf(t, baseline, path)
	if !failed {
		t.Errorf("one more allocation per op did not fail the diff:\n%s", out)
	}
	for _, want := range []string{
		"warm_point_read host_allocs_per_op_plus1: 1.000 → 2.000 (+100.00%, bound 6%) WORSE PAST BOUND",
		"seq_cold_scan virt_mb_per_s: 1 276.9 → 1 289.7 (+1.00%, bound 6%) better",
		"seq_cold_scan virt_digest: 29b0d217ce9c438a → x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "setup_s:") {
		t.Errorf("a host metric inside its bound reported as a move:\n%s", out)
	}
}

// A virtual metric compares exactly: any move the wrong way shows, and it
// fails only past its bound.
func TestVirtualMetricsCompareExactly(t *testing.T) {
	path := doctored(t, func(c *cell) {
		if c.Workload == "tier_stripe_scan" {
			s := c.EndToEnd["virt_op_p99_us"]
			s.Median += 0.001
			c.EndToEnd["virt_op_p99_us"] = s
		}
	})
	out, failed := diffOf(t, baseline, path)
	if failed || !strings.Contains(out, "tier_stripe_scan virt_op_p99_us: 448.8 → 448.8 (+0.00%, bound 20%) worse") {
		t.Errorf("failed=%v, output:\n%s", failed, out)
	}
}
