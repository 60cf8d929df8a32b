package ycsb

import (
	"math/rand"
	"testing"

	crossprefetch "repro"
	"repro/internal/lsm"
)

func TestZipfianSkew(t *testing.T) {
	z := newZipfian(10_000)
	rng := rand.New(rand.NewSource(1))
	counts := make(map[int64]int)
	const draws = 50_000
	for i := 0; i < draws; i++ {
		k := z.next(rng)
		if k < 0 || k >= 10_000 {
			t.Fatalf("draw out of range: %d", k)
		}
		counts[k]++
	}
	// The head must dominate: item 0 should take a few percent of draws.
	if counts[0] < draws/100 {
		t.Fatalf("zipfian head too light: %d/%d", counts[0], draws)
	}
	// And the tail must still be reachable.
	tail := 0
	for k, c := range counts {
		if k > 5000 {
			tail += c
		}
	}
	if tail == 0 {
		t.Fatal("zipfian never reached the tail")
	}
}

func TestScrambleInRange(t *testing.T) {
	for i := int64(0); i < 1000; i++ {
		if s := scramble(i, 777); s < 0 || s >= 777 {
			t.Fatalf("scramble(%d) = %d out of range", i, s)
		}
	}
}

func runWorkload(t *testing.T, w Workload, a crossprefetch.Approach) Result {
	t.Helper()
	res, err := Run(w, Config{
		Sys: crossprefetch.NewSystem(crossprefetch.Config{
			MemoryBytes: 64 << 20, Approach: a,
		}),
		DB:      lsm.Options{MemtableBytes: 256 << 10, BlockBytes: 4 << 10},
		Records: 3000, ValueBytes: 512,
		Threads: 2, OpsPerThread: 300, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScanLenUniform: a workload E scan's length is one uniform draw in
// 1…maxScanLen (mean 50.5). Drawing the bound again at every step of the
// scan, as the loop condition once did, gives a mean of 12.2.
func TestScanLenUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const scans = 10_000
	sum := 0
	for i := 0; i < scans; i++ {
		n := scanLen(rng)
		if n < 1 || n > maxScanLen {
			t.Fatalf("scan length %d outside 1…%d", n, maxScanLen)
		}
		sum += n
	}
	if mean := float64(sum) / scans; mean < 48 || mean > 53 {
		t.Fatalf("mean scan length %.1f, want ≈ 50.5", mean)
	}
}

func TestAllWorkloadsRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.String(), func(t *testing.T) {
			res := runWorkload(t, w, crossprefetch.OSOnly)
			// F counts a read-modify-write as both a read and a write,
			// so its op count exceeds the issued iterations.
			if res.Ops < 600 {
				t.Fatalf("ops = %d, want >= 600", res.Ops)
			}
			if res.KopsPerSec <= 0 {
				t.Fatal("no throughput")
			}
		})
	}
}

func TestWorkloadMixes(t *testing.T) {
	a := runWorkload(t, WorkloadA, crossprefetch.OSOnly)
	if a.WriteOps == 0 || a.ReadOps == 0 {
		t.Fatalf("A should mix reads and writes: %d/%d", a.ReadOps, a.WriteOps)
	}
	// Roughly 50/50.
	ratio := float64(a.WriteOps) / float64(a.Ops)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("A write ratio = %.2f", ratio)
	}
	c := runWorkload(t, WorkloadC, crossprefetch.OSOnly)
	if c.WriteOps != 0 {
		t.Fatalf("C is read-only but wrote %d", c.WriteOps)
	}
	e := runWorkload(t, WorkloadE, crossprefetch.OSOnly)
	if e.ScanOps == 0 {
		t.Fatal("E should scan")
	}
	f := runWorkload(t, WorkloadF, crossprefetch.OSOnly)
	if f.ReadOps <= f.WriteOps {
		t.Fatalf("F reads should outnumber writes (RMW counts both): %d/%d", f.ReadOps, f.WriteOps)
	}
}

func TestWorkloadCCrossBeatsAppOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	app := runWorkload(t, WorkloadC, crossprefetch.AppOnly)
	cross := runWorkload(t, WorkloadC, crossprefetch.CrossPredictOpt)
	// Figure 9a shape for the read-intensive workload.
	if cross.KopsPerSec <= app.KopsPerSec {
		t.Fatalf("CrossPredictOpt (%.0f kops) should beat APPonly (%.0f kops)",
			cross.KopsPerSec, app.KopsPerSec)
	}
}
