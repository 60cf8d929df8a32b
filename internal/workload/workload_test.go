package workload

import (
	"testing"

	crossprefetch "repro"
	"repro/internal/simtime"
)

// microSys builds a small system for workload tests: 64MB memory.
func microSys(a crossprefetch.Approach) *crossprefetch.System {
	return crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: 64 << 20,
		Approach:    a,
	})
}

func runQuick(t *testing.T, a crossprefetch.Approach, shared, seq bool) Result {
	t.Helper()
	res, err := RunMicro(MicroConfig{
		Sys:        microSys(a),
		Threads:    4,
		IOSize:     16 << 10,
		TotalBytes: 128 << 20, // 2× memory
		Shared:     shared,
		Sequential: seq,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMicroSequentialPrivate(t *testing.T) {
	res := runQuick(t, crossprefetch.OSOnly, false, true)
	if res.ReadBytes != 128<<20 {
		t.Fatalf("read %d bytes", res.ReadBytes)
	}
	if res.ReadMBs <= 0 {
		t.Fatal("no throughput computed")
	}
	// Sequential with OS readahead: decent hit rate.
	if res.MissPct > 50 {
		t.Fatalf("sequential OSonly miss%% = %.1f", res.MissPct)
	}
}

func TestMicroRandomApproachOrdering(t *testing.T) {
	app := runQuick(t, crossprefetch.AppOnly, true, false)
	osO := runQuick(t, crossprefetch.OSOnly, true, false)
	cross := runQuick(t, crossprefetch.CrossPredict, true, false)
	// Paper Figure 5 / Table 3 shape: cross-layered prefetching cuts the
	// miss rate well below the baselines on shared random reads and wins
	// on throughput.
	if cross.MissPct >= app.MissPct-5 {
		t.Fatalf("CrossPredict miss%% (%.1f) should be well below APPonly (%.1f)",
			cross.MissPct, app.MissPct)
	}
	if cross.ReadMBs <= app.ReadMBs {
		t.Fatalf("CrossPredict (%.1f MB/s) should beat APPonly (%.1f MB/s)",
			cross.ReadMBs, app.ReadMBs)
	}
	// On uniform random access both baselines end up without effective
	// readahead, so their miss rates coincide to within a point.
	if app.MissPct < osO.MissPct-1 {
		t.Fatalf("APPonly miss%% (%.1f) should be >= OSonly (%.1f)", app.MissPct, osO.MissPct)
	}
}

func TestMicroSharedSequentialCross(t *testing.T) {
	res := runQuick(t, crossprefetch.CrossPredictOpt, true, true)
	if res.MissPct > 40 {
		t.Fatalf("shared sequential CrossPredictOpt miss%% = %.1f", res.MissPct)
	}
	if res.Metrics.Lib.PrefetchCalls == 0 {
		t.Fatal("library should have prefetched")
	}
}

func TestMicroWithWriters(t *testing.T) {
	res, err := RunMicro(MicroConfig{
		Sys:        microSys(crossprefetch.CrossPredictOpt),
		Threads:    4,
		Writers:    2,
		IOSize:     16 << 10,
		TotalBytes: 64 << 20,
		Shared:     true,
		Sequential: false,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteBytes == 0 || res.WriteMBs <= 0 {
		t.Fatal("writers produced no throughput")
	}
}

func TestMicroFincoreApproach(t *testing.T) {
	res := runQuick(t, crossprefetch.AppOnlyFincore, true, false)
	if res.Metrics.Lib.FincorePolls == 0 {
		t.Fatal("fincore poller did not run")
	}
}

func TestMicroTooSmall(t *testing.T) {
	_, err := RunMicro(MicroConfig{Sys: microSys(crossprefetch.OSOnly), Threads: 64, TotalBytes: 16})
	if err == nil {
		t.Fatal("expected error for tiny workload")
	}
}

// TestMicroWritersNeedSharedFile: writers write the shared file, so asking
// for them over private files is an error. RunMicro used to drop them
// silently and report a read-only run.
func TestMicroWritersNeedSharedFile(t *testing.T) {
	res, err := RunMicro(MicroConfig{
		Sys: microSys(crossprefetch.OSOnly), Threads: 2, Writers: 2, TotalBytes: 4 << 20, Seed: 1,
	})
	if err == nil {
		t.Fatalf("RunMicro with writers over private files = nil error, %d bytes written", res.WriteBytes)
	}
}

func TestMmapSequentialVsRandom(t *testing.T) {
	seqRes, err := RunMmap(MmapConfig{
		Sys: microSys(crossprefetch.CrossPredictOpt), Threads: 2,
		TotalBytes: 64 << 20, Sequential: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	randRes, err := RunMmap(MmapConfig{
		Sys: microSys(crossprefetch.CrossPredictOpt), Threads: 2,
		TotalBytes: 64 << 20, Sequential: false, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.ReadMBs <= randRes.ReadMBs {
		t.Fatalf("mmap sequential (%.1f) should beat random (%.1f)",
			seqRes.ReadMBs, randRes.ReadMBs)
	}
}

func TestMmapAppOnlySlower(t *testing.T) {
	app, err := RunMmap(MmapConfig{
		Sys: microSys(crossprefetch.AppOnly), Threads: 2,
		TotalBytes: 64 << 20, Sequential: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cross, err := RunMmap(MmapConfig{
		Sys: microSys(crossprefetch.CrossPredictOpt), Threads: 2,
		TotalBytes: 64 << 20, Sequential: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Table 4 shape: madvise(RANDOM) cripples APPonly sequential loads.
	if app.ReadMBs >= cross.ReadMBs {
		t.Fatalf("APPonly mmap (%.1f) should lose to CrossPredictOpt (%.1f)",
			app.ReadMBs, cross.ReadMBs)
	}
}

func TestGroupAccountingSane(t *testing.T) {
	res := runQuick(t, crossprefetch.OSOnly, false, false)
	total := res.Group.Total
	if total.CPU+total.IOWait+total.LockWait > total.Elapsed+simtime.Duration(res.Group.Threads) {
		t.Fatalf("accounting exceeds elapsed: %+v", total)
	}
	if res.LockPct < 0 || res.LockPct > 100 {
		t.Fatalf("lock%% = %v", res.LockPct)
	}
}
