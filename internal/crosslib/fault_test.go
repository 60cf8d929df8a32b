package crosslib

import (
	"slices"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// transientReads makes every read fail once per site, then clear.
func transientReads(repeats int) *faultinject.Injector {
	return faultinject.New(faultinject.Plan{
		Seed:             7,
		TransientRepeats: repeats,
		Ranges:           []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Transient, Reads: true}},
	})
}

// TestPrefetchRetriesTransient: a transient device fault under a
// background prefetch is absorbed by the library's backoff-retry — the
// workload still completes and retries are accounted.
func TestPrefetchRetriesTransient(t *testing.T) {
	v, dev := newKernelStack(blockdev.NVMeConfig(), 1_000_000)
	rt := NewForApproach(v, CrossPredictOpt)
	rec := telemetry.NewRecorder(0)
	rt.SetTelemetry(rec)
	v.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 32<<20)
	dev.SetFaultInjector(transientReads(1)) // each site fails once

	f, err := rt.Open(tl, "big")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16384)
	for off := int64(0); off < 8<<20; off += int64(len(buf)) {
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
	}
	st := rt.Stats()
	if st.PrefetchRetries == 0 {
		t.Fatal("no prefetch retries under transient faults")
	}
	if st.BreakerTrips != 0 {
		t.Fatalf("breaker tripped %d times although every retry succeeds", st.BreakerTrips)
	}
	if got := rec.CounterValue(telemetry.CtrLibPrefetchRetries); got != st.PrefetchRetries {
		t.Fatalf("telemetry retries %d != stats retries %d", got, st.PrefetchRetries)
	}
}

// TestBreakerTripsAndRecovers: persistent prefetch failures open the
// per-file breaker (background prefetch stops; demand reads carry on);
// after the fault clears and the cool-off elapses, a probe prefetch
// closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	v, dev := newKernelStack(blockdev.NVMeConfig(), 1_000_000)
	opt := CrossPredictOpt.Options()
	opt.BreakerThreshold = 2
	opt.BreakerCooloff = 2 * simtime.Millisecond
	rt := New(v, opt)
	rec := telemetry.NewRecorder(0)
	rt.SetTelemetry(rec)
	v.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 64<<20)
	dev.SetFaultInjector(faultinject.New(faultinject.Plan{
		Seed:   7,
		Ranges: []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Persistent, Reads: true}},
	}))

	f, err := rt.Open(tl, "big")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16384)
	for off := int64(0); off < 8<<20; off += int64(len(buf)) {
		f.ReadAt(tl, buf, off) // demand reads fail too; keep going
	}
	st := rt.Stats()
	if st.BreakerTrips == 0 {
		t.Fatal("breaker never tripped under persistent faults")
	}
	if st.DroppedBreaker == 0 {
		t.Fatal("no prefetch intents dropped while the breaker was open")
	}

	// Fault clears; past the cool-off the next prefetch probes and the
	// breaker closes.
	dev.SetFaultInjector(nil)
	tl.WaitUntil(tl.Now().Add(10*simtime.Millisecond), simtime.WaitIO)
	for off := int64(8 << 20); off < 24<<20; off += int64(len(buf)) {
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			t.Fatalf("read after fault cleared: %v", err)
		}
	}
	st = rt.Stats()
	if st.BreakerRecoveries == 0 {
		t.Fatal("breaker never recovered after the fault cleared")
	}
	if got := rec.CounterValue(telemetry.CtrLibBreakerTrips); got != st.BreakerTrips {
		t.Fatalf("telemetry trips %d != stats trips %d", got, st.BreakerTrips)
	}
	if got := rec.CounterValue(telemetry.CtrLibBreakerRecoveries); got != st.BreakerRecoveries {
		t.Fatalf("telemetry recoveries %d != stats recoveries %d", got, st.BreakerRecoveries)
	}
	// The file must still prefetch normally once closed.
	if rt.Stats().PrefetchedPages == 0 {
		t.Fatal("no pages prefetched after recovery")
	}
}

// faultRun executes one sequential-read workload under a transient
// fault plan and returns the observables a deterministic simulation
// must reproduce exactly.
type faultRunResult struct {
	makespan  simtime.Duration
	stats     Stats
	retries   int64
	faults    int64
	issued    int64
	demandRtr int64
}

func faultRun(t *testing.T, faultSeed int64) faultRunResult {
	t.Helper()
	v, dev := newKernelStack(blockdev.NVMeConfig(), 1_000_000)
	opt := CrossPredictOpt.Options()
	opt.FaultSeed = faultSeed
	rt := New(v, opt)
	rec := telemetry.NewRecorder(0)
	rt.SetTelemetry(rec)
	v.SetTelemetry(rec)
	dev.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 32<<20)
	dev.SetFaultInjector(transientReads(1))

	f, err := rt.Open(tl, "big")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16384)
	for off := int64(0); off < 8<<20; off += int64(len(buf)) {
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	return faultRunResult{
		makespan:  tl.Elapsed(),
		stats:     rt.Stats(),
		retries:   rec.CounterValue(telemetry.CtrLibPrefetchRetries),
		faults:    rec.CounterValue(telemetry.CtrDeviceInjectedFaults),
		issued:    rec.CounterValue(telemetry.CtrLibIssuedPages),
		demandRtr: rec.CounterValue(telemetry.CtrVFSDemandRetries),
	}
}

// TestRetryScheduleDeterministic: identical seed and plan must yield an
// identical virtual-time schedule (makespan) and identical fault,
// retry, and prefetch accounting across independent runs — the whole
// point of hash-based fault decisions and seeded backoff jitter.
func TestRetryScheduleDeterministic(t *testing.T) {
	a := faultRun(t, 42)
	b := faultRun(t, 42)
	if a.makespan != b.makespan {
		t.Fatalf("makespan differs across identical runs: %v vs %v", a.makespan, b.makespan)
	}
	if a != b {
		t.Fatalf("run observables differ:\n a=%+v\n b=%+v", a, b)
	}
	if a.retries == 0 || a.faults == 0 {
		t.Fatalf("degenerate run (retries=%d faults=%d): plan injected nothing", a.retries, a.faults)
	}
}

// TestRetryDelayCurve: the backoff before retry n is retryBase doubled
// n-1 times, saturating at retryDelayCap rather than overflowing, and the
// seeded jitter only stretches it, by less than retryJitterFrac of itself.
func TestRetryDelayCurve(t *testing.T) {
	ref := retryBase
	for attempt := 1; attempt <= 80; attempt++ {
		got := retryDelay(42, 7, int64(attempt), attempt)
		if hi := ref + simtime.Duration(float64(ref)*retryJitterFrac); got < ref || got > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, ref, hi)
		}
		if ref = 2 * ref; ref > retryDelayCap {
			ref = retryDelayCap
		}
	}
}

// persistentReads fails every device read definitively.
func persistentReads() *faultinject.Injector {
	return faultinject.New(faultinject.Plan{
		Seed:   7,
		Ranges: []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Persistent, Reads: true}},
	})
}

// brkState snapshots a file's breaker under its lock.
func brkState(f *File) (fails int, open bool) {
	f.sf.brk.mu.Lock()
	defer f.sf.brk.mu.Unlock()
	return f.sf.brk.fails, f.sf.brk.open
}

// TestMultiRunPrefetchFeedsBreakerOnce is the regression test for the
// per-range breaker feed: a single background job whose intent splits
// into several runs used to issue every run against a definitively
// failing device, feeding the breaker once per run — one bad multi-run
// job tripped a threshold-3 breaker alone — and burning a kernel
// crossing per run after the first had already proven the device dead.
// The job must stop at the first definitive failure, feed the breaker
// exactly once, and give the unissued runs' requested bits back.
func TestMultiRunPrefetchFeedsBreakerOnce(t *testing.T) {
	v, dev := newKernelStack(blockdev.NVMeConfig(), 1_000_000)
	opt := CrossPredictOpt.Options()
	opt.BreakerThreshold = 3
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 64<<20)
	f, err := rt.Open(tl, "big")
	if err != nil {
		t.Fatal(err)
	}
	// Split [1000, 1120) into three missing runs by pre-marking two gaps
	// cached, then fail every read definitively.
	f.sf.tree.MarkCached(tl, 1040, 1044)
	f.sf.tree.MarkCached(tl, 1080, 1084)
	dev.SetFaultInjector(persistentReads())
	base := rt.Stats()

	f.prefetchAsync(tl, 1000, 120, budgetUnasked, false) // job runs inline on the worker pool

	fails, open := brkState(f)
	if fails != 1 {
		t.Fatalf("one failing job fed the breaker %d times, want exactly 1", fails)
	}
	if open {
		t.Fatal("threshold-3 breaker tripped by a single job")
	}
	st := rt.Stats()
	if st.BreakerTrips != base.BreakerTrips {
		t.Fatalf("breaker tripped %d times", st.BreakerTrips-base.BreakerTrips)
	}
	if d := st.PrefetchCalls - base.PrefetchCalls; d != 1 {
		t.Fatalf("failing job crossed %d times, want 1 (stop at first definitive failure)", d)
	}
	// Requested-bit reconciliation: every run — issued and unissued — is
	// missing again, so nothing is stranded as requested-forever.
	runs := f.sf.tree.NeedsPrefetch(tl, 1000, 1120)
	want := [][2]int64{{1000, 1040}, {1044, 1080}, {1084, 1120}}
	if len(runs) != len(want) {
		t.Fatalf("post-failure missing runs = %v, want %v", runs, want)
	}
	for i, r := range runs {
		if r.Lo != want[i][0] || r.Hi != want[i][1] {
			t.Fatalf("post-failure missing runs = %v, want %v", runs, want)
		}
	}
}

// TestMmapScanFeedsBreakerOnce is the same contract for the mmap scan,
// which used to walk its window's missing runs with a loop of its own: three
// runs against a definitively failing device were three crossings and three
// breaker feeds, so one scan tripped a threshold-3 breaker alone.
func TestMmapScanFeedsBreakerOnce(t *testing.T) {
	v, dev := newKernelStack(blockdev.NVMeConfig(), 1_000_000)
	opt := CrossPredictOpt.Options()
	opt.BreakerThreshold = 3
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "big", 64<<20)
	f, err := rt.Open(tl, "big") // the optimistic open makes [0, front) resident
	if err != nil {
		t.Fatal(err)
	}
	m := rt.Mmap(tl, f)
	front := f.Kernel().FileCache().CachedPages()
	if front < 256 {
		t.Fatalf("open prefetch left %d pages resident", front)
	}
	// The scan will find [front-128, front) dense, double its window to 64
	// and prefetch [front, front+64): split that into three missing runs.
	f.sf.tree.MarkCached(tl, front+20, front+24)
	f.sf.tree.MarkCached(tl, front+40, front+44)
	dev.SetFaultInjector(persistentReads())
	crossings := v.SyscallCount(vfs.SysReadaheadInfo)
	base := rt.Stats()

	m.scheduleScan(tl) // runs inline on the worker pool

	if fails, open := brkState(f); fails != 1 || open {
		t.Fatalf("one failing scan: breaker fails=%d open=%v, want 1 feed and closed", fails, open)
	}
	if d := v.SyscallCount(vfs.SysReadaheadInfo) - crossings; d != 2 {
		t.Fatalf("scan crossed %d times, want 2 (the export-only query, one prefetch)", d)
	}
	if d := rt.Stats().PrefetchCalls - base.PrefetchCalls; d != 1 {
		t.Fatalf("scan issued %d prefetch calls, want 1", d)
	}
	runs := f.sf.tree.NeedsPrefetch(tl, front, front+64)
	want := []bitmap.Run{{Lo: front, Hi: front + 20}, {Lo: front + 24, Hi: front + 40}, {Lo: front + 44, Hi: front + 64}}
	if !slices.Equal(runs, want) {
		t.Fatalf("post-failure missing runs = %v, want %v", runs, want)
	}
}
