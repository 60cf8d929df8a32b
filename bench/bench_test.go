package main

import (
	"bytes"
	"math"
	"os"
	"testing"

	crossprefetch "repro"
	"repro/internal/lsm"
)

var tinyParams = params{seed: 1, seconds: runSeconds, tiny: true}

func sumShares(t *testing.T, r *report, names ...string) float64 {
	t.Helper()
	var sum float64
	for _, n := range names {
		v, ok := r.Metrics[n]
		if !ok {
			t.Fatalf("%s: metric %s missing", r.Workload, n)
		}
		sum += v
	}
	return sum
}

// TestSmoke runs every workload at tiny scale, untraced and traced.
// runOne itself fails unless exactly the declared metrics are emitted,
// each finite, and unless a single-timeline workload reproduces its
// virtual digest from cycle to cycle; here the outputs must also verify
// and the shares must close.
func TestSmoke(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics declared; the contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			e2e, err := runOne(w, tinyParams, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range endToEnd {
				if e2e.Metrics[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v; bounded metrics must never be 0", m.Name, e2e.Metrics[m.Name])
				}
			}
			layers, err := runOne(w, tinyParams, true)
			if err != nil {
				t.Fatal(err)
			}
			if e2e.Failed+layers.Failed != 0 {
				t.Errorf("%d untraced and %d traced ops failed verification", e2e.Failed, layers.Failed)
			}
			if s := sumShares(t, layers, "simtime.virt_cpu_share", "simtime.virt_io_wait_share", "simtime.virt_lock_wait_share"); math.Abs(s-1) > 1e-9 {
				t.Errorf("simtime shares sum to %v", s)
			}
			var path []string
			for _, c := range []string{"cpu", "device", "queue", "lock", "copy", "inflight", "retry", "stall"} {
				path = append(path, "telemetry.virt_path_"+c+"_share")
			}
			if s := sumShares(t, layers, path...); math.Abs(s-1) > 1e-9 {
				t.Errorf("telemetry.virt_path_* shares sum to %v", s)
			}
			// The interaction table's bypass predictions, at baseline.
			if w.name == "warm_point_read" && layers.Metrics["blockdev.read_ops"] != 0 {
				t.Errorf("warm_point_read issued %v device reads", layers.Metrics["blockdev.read_ops"])
			}
			if w.name != "tier_stripe_scan" {
				for _, n := range []string{"tier_promotions", "tier_prefetch_promotions", "tier_demotions", "tier_copyback_mb"} {
					if v := layers.Metrics["blockdev."+n]; v != 0 {
						t.Errorf("untiered workload reports blockdev.%s = %v", n, v)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables it is
// generated from (`go run . -spec > ../BENCHMARK.json`).
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the declared metrics and workloads; regenerate it with -spec")
	}
}

// TestStaleGetAfterSkewedPuts tracks the defect that keeps lsm_mixed_rw's
// Puts off the Gets' skew: a key overwritten more often within one
// memtable than a data block holds versions is flushed with its versions
// straddling a block boundary, newest first, and sstable.blockFor picks the
// last block that starts at or before the key — the one holding the oldest.
// The benchmark may not change program code, so the test skips while Get
// answers stale, and fails once it no longer does: that is the moment to
// draw lsm_mixed_rw's Put keys from the zipfian too, delete this test and
// measure the baseline again.
func TestStaleGetAfterSkewedPuts(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		Approach: approach, MemoryBytes: 32 << 20, BlockSize: 4096, Plug: true,
	})
	tl := sys.Timeline()
	db, err := lsm.Open(tl, lsm.Options{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	// 64 versions of one 1KB value: four default 16KB blocks' worth, with
	// a neighbour on each side as any real table has.
	const hot, versions = 1, 64
	val := make([]byte, lsmValueBytes)
	for k := int64(0); k <= 2; k++ {
		lsmValue(val, k, 0)
		if err := db.Put(tl, lsm.BenchKey(k), val); err != nil {
			t.Fatal(err)
		}
	}
	for v := uint32(1); v <= versions; v++ {
		lsmValue(val, hot, v)
		if err := db.Put(tl, lsm.BenchKey(hot), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(tl); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle(tl)
	got, found, err := db.Get(tl, lsm.BenchKey(hot))
	if err != nil || !found {
		t.Fatalf("Get: found %v, err %v", found, err)
	}
	lsmValue(val, hot, versions)
	if !bytes.Equal(got, val) {
		t.Skip("known defect, tracked here: lsm.DB.Get answers an old version when a key's versions straddle a block boundary of a flushed table (sstable.blockFor)")
	}
	t.Error("lsm.DB.Get now answers the newest version: give lsm_mixed_rw skewed Puts, delete this test, re-measure the baseline")
}
