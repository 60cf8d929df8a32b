// Span-tracing integration tests: Chrome trace-event export, cross-layer
// nesting, critical-path attribution of a faulted read, same-seed
// determinism, zero-allocation disabled paths, and the audit's
// spans-vs-counters reconciliation, over whole systems: an external test
// package, because the root package imports this one.
package telemetry_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	crossprefetch "repro"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// traceEvent mirrors one Chrome trace-event object for parsing.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// faultedReadSystem builds a traced system whose reads suffer one
// transient fault per request site plus an injected 2ms stall, so a cold
// read exercises device service, queueing, stalls, and retry backoff.
func faultedReadSystem(t *testing.T) *crossprefetch.System {
	t.Helper()
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: 64 << 20,
		Telemetry:   true,
		Trace:       true,
	})
	tl := sys.Timeline()
	if err := sys.CreateSynthetic(tl, "data", 8<<20); err != nil {
		t.Fatal(err)
	}
	sys.Device().SetFaultInjector(faultinject.New(faultinject.Plan{
		Seed:             1,
		TransientRepeats: 1,
		Ranges: []faultinject.RangeFault{
			{Lo: 0, Hi: 1 << 40, Class: faultinject.Transient, Reads: true, Repeats: 1},
		},
		StallProb: 1,
		Stall:     2_000_000, // 2ms
	}))
	return sys
}

// TestTraceFaultedReadExport is the acceptance test: run a faulted read,
// export the trace the same way crossbench -trace does, parse it as
// Chrome trace-event JSON, verify parent/child nesting across all four
// layers, and confirm the critical-path slices of the slow read sum to
// 100% of the root span's duration.
func TestTraceFaultedReadExport(t *testing.T) {
	sys := faultedReadSystem(t)
	tl := sys.Timeline()
	f, err := sys.Open(tl, "data")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256<<10)
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatalf("read should survive transient faults: %v", err)
	}

	var out bytes.Buffer
	if err := telemetry.WriteChromeTrace(&out,
		[]telemetry.TraceProcess{{Name: "test", Tracer: sys.Tracer()}}); err != nil {
		t.Fatal(err)
	}
	var trace chromeTrace
	if err := json.Unmarshal(out.Bytes(), &trace); err != nil {
		t.Fatalf("crossbench -trace output is not valid Chrome trace JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ns" || len(trace.TraceEvents) == 0 {
		t.Fatalf("malformed trace: unit=%q events=%d", trace.DisplayTimeUnit, len(trace.TraceEvents))
	}

	// Find the slowest lib.read root thread.
	var root *traceEvent
	for i, ev := range trace.TraceEvents {
		if ev.Ph == "X" && ev.Name == "lib.read" {
			if root == nil || ev.Dur > root.Dur {
				root = &trace.TraceEvents[i]
			}
		}
	}
	if root == nil {
		t.Fatal("no lib.read root span in trace")
	}

	// nested reports whether a span event lies within container's window
	// on the same thread.
	nested := func(ev, container *traceEvent) bool {
		const eps = 1e-6
		return ev.Pid == container.Pid && ev.Tid == container.Tid &&
			ev.Ts >= container.Ts-eps && ev.Ts+ev.Dur <= container.Ts+container.Dur+eps
	}
	// Layer witnesses, each nested under the library root: the VFS demand
	// fetch, a page-cache charge, the device service span and a fault or
	// stall; the device span and the plug's per-command retry backoff must
	// additionally nest inside the VFS fetch (parent/child chain lib -> vfs
	// -> dev).
	var vfsFetch *traceEvent
	for i, ev := range trace.TraceEvents {
		if ev.Ph == "X" && ev.Name == "vfs.demand_fetch" && nested(&trace.TraceEvents[i], root) {
			vfsFetch = &trace.TraceEvents[i]
			break
		}
	}
	if vfsFetch == nil {
		t.Fatal("no vfs.demand_fetch span nested under lib.read")
	}
	var haveCache, haveDev, haveStall, haveRetry bool
	for i, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		e := &trace.TraceEvents[i]
		switch {
		case strings.HasPrefix(ev.Name, "cache.") && nested(e, root):
			haveCache = true
		case ev.Name == "dev.read" && nested(e, vfsFetch):
			haveDev = true
		case (ev.Name == "dev.stall" || ev.Name == "dev.fault") && nested(e, root):
			haveStall = true
		case ev.Name == "dev.retry_backoff" && nested(e, vfsFetch):
			haveRetry = true
		}
	}
	if !haveCache || !haveDev || !haveStall || !haveRetry {
		t.Fatalf("missing layer spans: cache=%v dev=%v stall=%v retry=%v",
			haveCache, haveDev, haveStall, haveRetry)
	}
	if _, ok := root.Args["critical_path"].(string); !ok {
		t.Fatal("root span args missing critical_path summary")
	}

	// Critical-path exactness on the retained root itself.
	var slow *telemetry.Span
	for _, r := range sys.Tracer().Roots() {
		if r.Op() == telemetry.OpRead && (slow == nil || r.Duration() > slow.Duration()) {
			slow = r
		}
	}
	if slow == nil {
		t.Fatal("flight recorder retained no read roots")
	}
	slices := telemetry.CriticalPath(slow)
	var sum int64
	var pct float64
	cats := map[string]bool{}
	for _, sl := range slices {
		sum += sl.Ns
		pct += sl.Percent
		cats[sl.Name] = true
	}
	if sum != int64(slow.Duration()) {
		t.Fatalf("critical-path slices sum to %dns, root duration %dns", sum, slow.Duration())
	}
	if math.Abs(pct-100) > 1e-6 {
		t.Fatalf("critical-path percentages sum to %v, want 100", pct)
	}
	for _, want := range []string{"device", "stall", "retry"} {
		if !cats[want] {
			t.Fatalf("faulted read's critical path lacks %q: %s",
				want, telemetry.FormatCriticalPath(slices))
		}
	}
}

// TestTraceDeterministic runs the identical single-threaded faulted
// workload twice with the same seed and requires byte-identical Chrome
// trace output. `make race` runs this under the race detector.
func TestTraceDeterministic(t *testing.T) {
	run := func() []byte {
		sys := faultedReadSystem(t)
		tl := sys.Timeline()
		f, err := sys.Open(tl, "data")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64<<10)
		for i := int64(0); i < 16; i++ {
			if _, err := f.ReadAt(tl, buf, i*int64(len(buf))); err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		if err := telemetry.WriteChromeTrace(&out,
			[]telemetry.TraceProcess{{Name: "run", Tracer: sys.Tracer()}}); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed runs produced different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// TestTraceDisabledAllocParity proves disabling tracing costs nothing:
// a warm-cache read allocates exactly as much on a system with a
// never-sampling tracer as on one built without any tracer.
func TestTraceDisabledAllocParity(t *testing.T) {
	if telemetry.RaceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc guard is meaningless")
	}
	measure := func(cfg crossprefetch.Config) float64 {
		cfg.MemoryBytes = 64 << 20
		sys := crossprefetch.NewSystem(cfg)
		tl := sys.Timeline()
		if err := sys.CreateSynthetic(tl, "data", 1<<20); err != nil {
			t.Fatal(err)
		}
		f, err := sys.Open(tl, "data")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16<<10)
		if _, err := f.ReadAt(tl, buf, 0); err != nil { // warm the cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := f.ReadAt(tl, buf, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := measure(crossprefetch.Config{})
	never := measure(crossprefetch.Config{Trace: true, TraceSampleEvery: math.MaxInt64})
	if off != never {
		t.Fatalf("unsampled tracing changed ReadAt allocations: off=%v never=%v", off, never)
	}
}

// TestTraceAuditReconciliation checks the audit's spans-vs-counters
// invariant end to end: under full sampling the page totals accumulated
// on spans must equal the VFS demand/prefetch counters.
func TestTraceAuditReconciliation(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: 64 << 20,
		Approach:    crossprefetch.CrossPredictOpt,
		Telemetry:   true,
		Trace:       true,
	})
	tl := sys.Timeline()
	if err := sys.CreateSynthetic(tl, "data", 16<<20); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open(tl, "data")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128<<10)
	for i := int64(0); i < 32; i++ {
		if _, err := f.ReadAt(tl, buf, i*int64(len(buf))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AuditTelemetry(); err != nil {
		t.Fatalf("audit failed: %v", err)
	}
	m := sys.Metrics()
	if m.Trace == nil || m.Trace.SampledRoots == 0 {
		t.Fatalf("trace stats missing or empty: %+v", m.Trace)
	}
	if m.Trace.DemandPages+m.Trace.PrefetchPages == 0 {
		t.Fatal("span page totals empty despite device reads")
	}

	var prom bytes.Buffer
	if err := m.Telemetry.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"crossprefetch_tracer_sampled_roots_total",
		"crossprefetch_tracer_dropped_spans_total",
		"crossprefetch_events_dropped_total",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("Prometheus exposition missing %s:\n%s", want, prom.String())
		}
	}
}

// TestTraceSampledStats checks 1-in-N sampling bookkeeping through the
// public config surface.
func TestTraceSampledStats(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes:      64 << 20,
		Trace:            true,
		TraceSampleEvery: 4,
	})
	tl := sys.Timeline()
	if err := sys.CreateSynthetic(tl, "data", 1<<20); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open(tl, "data")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := int64(0); i < 16; i++ {
		if _, err := f.ReadAt(tl, buf, i*4096); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Tracer().Stats()
	if st.SampledRoots == 0 || st.SkippedRoots == 0 {
		t.Fatalf("1-in-4 sampling recorded %d sampled / %d skipped", st.SampledRoots, st.SkippedRoots)
	}
	if st.SampledRoots+st.SkippedRoots < 16 {
		t.Fatalf("only %d root operations seen, want >= 16", st.SampledRoots+st.SkippedRoots)
	}
}
