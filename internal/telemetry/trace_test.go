package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// TestHistogramMinMaxNonPositive is the regression test for the min/max
// sentinel collision: storing v+1 unconditionally mapped v = -1 onto the
// "unset" sentinel 0, so a later sample overwrote the true minimum.
func TestHistogramMinMaxNonPositive(t *testing.T) {
	var h Histogram
	h.Observe(-1)
	h.Observe(5)
	s := h.Snapshot()
	if s.Min != -1 || s.Max != 5 {
		t.Fatalf("min/max = %d/%d, want -1/5", s.Min, s.Max)
	}

	var zero Histogram
	zero.Observe(0)
	if s := zero.Snapshot(); s.Min != 0 || s.Max != 0 {
		t.Fatalf("zero-sample min/max = %d/%d, want 0/0", s.Min, s.Max)
	}

	var neg Histogram
	neg.Observe(-3)
	neg.Observe(-7)
	neg.Observe(-1)
	if s := neg.Snapshot(); s.Min != -7 || s.Max != -1 {
		t.Fatalf("negative min/max = %d/%d, want -7/-1", s.Min, s.Max)
	}
}

func TestTracerSampleEvery(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 3})
	var sampled int
	for i := 0; i < 9; i++ {
		tl := simtime.NewTimeline(0)
		if root := tr.Root(tl, OpRead, int64(i)); root != nil {
			sampled++
			root.Finish(tl)
		}
	}
	st := tr.Stats()
	if sampled != 3 || st.SampledRoots != 3 || st.SkippedRoots != 6 {
		t.Fatalf("sampled=%d stats=%+v, want 3 sampled / 6 skipped", sampled, st)
	}
}

func TestTracerPerInodeDeterministic(t *testing.T) {
	decide := func(seed int64) []bool {
		tr := NewTracer(TraceConfig{SampleEvery: 4, PerInode: true, Seed: seed})
		out := make([]bool, 64)
		for ino := range out {
			tl := simtime.NewTimeline(0)
			root := tr.Root(tl, OpRead, int64(ino))
			out[ino] = root != nil
			root.Finish(tl)
		}
		return out
	}
	a, b := decide(7), decide(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at ino %d", i)
		}
	}
	// An inode's decision is stable across repeated operations.
	tr := NewTracer(TraceConfig{SampleEvery: 4, PerInode: true, Seed: 7})
	for i := 0; i < 3; i++ {
		tl := simtime.NewTimeline(0)
		root := tr.Root(tl, OpRead, 42)
		if (root != nil) != a[42] {
			t.Fatalf("ino 42 decision flipped on op %d", i)
		}
		root.Finish(tl)
	}
}

func TestRootNestedIsNoop(t *testing.T) {
	tr := NewTracer(TraceConfig{})
	tl := simtime.NewTimeline(0)
	root := tr.Root(tl, OpRead, 1)
	if root == nil {
		t.Fatal("root not sampled")
	}
	if nested := tr.Root(tl, OpBgPrefetch, 1); nested != nil {
		t.Fatal("nested Root should attach to the active span, not open a new root")
	}
	root.Finish(tl)
	if Current(tl) != nil {
		t.Fatal("Finish left span context on the timeline")
	}
}

func TestBeginEndNesting(t *testing.T) {
	tr := NewTracer(TraceConfig{})
	tl := simtime.NewTimeline(0)
	root := tr.Root(tl, OpRead, 1)
	tl.Advance(10)
	a := Begin(tl, "vfs.demand_fetch", CatCPU)
	tl.Advance(10)
	b := Begin(tl, "cache.tree_walk", CatLock)
	if Current(tl) != b {
		t.Fatal("inner span not current")
	}
	tl.Advance(5)
	b.End(tl)
	if Current(tl) != a {
		t.Fatal("End did not restore parent")
	}
	a.End(tl)
	root.Finish(tl)
	if len(root.Children()) != 1 || len(a.Children()) != 1 {
		t.Fatalf("nesting wrong: root has %d children, a has %d", len(root.Children()), len(a.Children()))
	}
}

func TestFlightRecorderKeepsSlowest(t *testing.T) {
	tr := NewTracer(TraceConfig{KeepPerOp: 2})
	run := func(d simtime.Duration) {
		tl := simtime.NewTimeline(0)
		root := tr.Root(tl, OpRead, 1)
		tl.Advance(d)
		root.Finish(tl)
	}
	run(10)
	run(30)
	run(20) // evicts 10
	run(5)  // faster than everything retained: dropped outright
	roots := tr.Roots()
	if len(roots) != 2 || roots[0].Duration() != 30 || roots[1].Duration() != 20 {
		t.Fatalf("retained %v, want [30 20]", durations(roots))
	}
	if st := tr.Stats(); st.DroppedRoots != 2 || st.KeptRoots != 2 {
		t.Fatalf("stats = %+v, want 2 dropped / 2 kept", st)
	}
}

func durations(roots []*Span) []simtime.Duration {
	out := make([]simtime.Duration, len(roots))
	for i, r := range roots {
		out[i] = r.Duration()
	}
	return out
}

func TestMaxSpansPerRootCap(t *testing.T) {
	tr := NewTracer(TraceConfig{MaxSpansPerRoot: 3})
	tl := simtime.NewTimeline(0)
	root := tr.Root(tl, OpRead, 1)
	for i := 0; i < 4; i++ {
		root.Child("c", CatDevice, tl.Now(), tl.Now())
	}
	root.Finish(tl)
	if got := len(root.Children()); got != 2 {
		t.Fatalf("children = %d, want 2 (root counts toward the cap)", got)
	}
	if root.DroppedSpans() != 2 || tr.Stats().DroppedSpans != 2 {
		t.Fatalf("dropped = %d / %d, want 2", root.DroppedSpans(), tr.Stats().DroppedSpans)
	}
}

// TestCriticalPathExact checks the exclusive-attribution invariant: slice
// durations sum exactly to the root duration, overlaps and overruns
// clamped, uncovered time charged to the covering span's category.
func TestCriticalPathExact(t *testing.T) {
	tr := NewTracer(TraceConfig{})
	tl := simtime.NewTimeline(0)
	root := tr.Root(tl, OpRead, 1)
	root.Child("dev.read", CatDevice, 10, 50)
	root.Child("dev.queue", CatQueue, 40, 70) // overlaps: clamped to [50,70)
	root.Child("vfs.retry_backoff", CatRetry, 80, 90)
	root.Child("dev.async_read", CatDevice, 95, 120) // overruns: clamped to [95,100)
	tl.Advance(100)
	root.Finish(tl)

	slices := CriticalPath(root)
	var sum int64
	var pct float64
	got := map[string]int64{}
	for _, sl := range slices {
		sum += sl.Ns
		pct += sl.Percent
		got[sl.Name] = sl.Ns
	}
	if sum != int64(root.Duration()) {
		t.Fatalf("slices sum to %d, root duration %d", sum, root.Duration())
	}
	if math.Abs(pct-100) > 1e-9 {
		t.Fatalf("percentages sum to %v, want 100", pct)
	}
	want := map[string]int64{"device": 45, "queue": 20, "retry": 10, "cpu": 25}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("category %s = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	tr := NewTracer(TraceConfig{})
	tl := simtime.NewTimeline(0)
	root := tr.Root(tl, OpRead, 9)
	root.Annotate("bytes", 4096)
	tl.Advance(5)
	sp := Begin(tl, "vfs.demand_fetch", CatCPU)
	tl.Advance(20)
	sp.End(tl)
	tl.Advance(5)
	root.Finish(tl)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []TraceProcess{{Name: "test", Tracer: tr}}); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	// process_name + thread_name metadata, root X, child X.
	if len(trace.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(trace.TraceEvents))
	}
	var rootEv, childEv int = -1, -1
	for i, ev := range trace.TraceEvents {
		switch ev.Name {
		case "lib.read":
			rootEv = i
		case "vfs.demand_fetch":
			childEv = i
		}
	}
	if rootEv < 0 || childEv < 0 {
		t.Fatal("span events missing")
	}
	re, ce := trace.TraceEvents[rootEv], trace.TraceEvents[childEv]
	if ce.Ts < re.Ts || ce.Ts+ce.Dur > re.Ts+re.Dur {
		t.Fatalf("child [%v,%v) not nested in root [%v,%v)", ce.Ts, ce.Ts+ce.Dur, re.Ts, re.Ts+re.Dur)
	}
	if _, ok := re.Args["critical_path"].(string); !ok {
		t.Fatal("root args missing critical_path")
	}
}

// TestDisabledTracingAllocatesNothing pins the zero-allocation contract
// of every disabled/unsampled fast path.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	tl := simtime.NewTimeline(0)
	var nilRec *Recorder
	var nilSpan *Span
	never := NewTracer(TraceConfig{SampleEvery: 1 << 30})
	checks := []struct {
		name string
		fn   func()
	}{
		{"nil-recorder", func() {
			nilRec.Add(CtrVFSDemandFetchPages, 1)
			nilRec.Observe(HistDevReadLat, 5)
			nilRec.Event(0, OutcomeIssued, 1, 0, 8)
		}},
		{"nil-tracer-root", func() {
			var tr *Tracer
			tr.Root(tl, OpRead, 1).Finish(tl)
		}},
		{"unsampled-root", func() {
			never.Root(tl, OpRead, 1).Finish(tl)
		}},
		{"no-active-span", func() {
			Begin(tl, "vfs.demand_fetch", CatCPU).End(tl)
			Current(tl).Annotate("k", 1)
			nilSpan.Child("c", CatDevice, 0, 1).CountPages(PageDemand, 4)
		}},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// TestCriticalPathReport: the report names each process that retained a
// root, in the order given, skips one that retained none, and lists its
// roots by op class in Op order, slowest first within a class, each with
// its duration, span count and a decomposition that sums to it.
func TestCriticalPathReport(t *testing.T) {
	tl := simtime.NewTimeline(0)
	op := func(tr *Tracer, o Op, ino int64, dur simtime.Duration, children func(root *Span, start simtime.Time)) {
		root := tr.Root(tl, o, ino)
		start := tl.Now()
		if children != nil {
			children(root, start)
		}
		tl.Advance(dur)
		root.Finish(tl)
	}
	a, idle, b := NewTracer(TraceConfig{}), NewTracer(TraceConfig{}), NewTracer(TraceConfig{})
	op(a, OpWrite, 9, 50, nil)
	op(a, OpRead, 1, 100, func(r *Span, s simtime.Time) { r.Child("dev.read", CatDevice, s, s+75) })
	op(a, OpRead, 2, 300, func(r *Span, s simtime.Time) {
		r.Child("dev.read", CatDevice, s, s+150)
		r.Child("vfs.wait_inflight", CatInflight, s+150, s+225)
	})
	op(a, OpRead, 3, 200, func(r *Span, s simtime.Time) { r.Child("vfs.copy_out", CatCopy, s+100, s+200) })
	op(b, OpRead, 4, 2*simtime.Microsecond, func(r *Span, s simtime.Time) {
		r.Child("dev.queue", CatQueue, s, s.Add(simtime.Microsecond))
	})

	var out strings.Builder
	err := WriteCriticalPathReport(&out, []TraceProcess{{Name: "cell a", Tracer: a}, {Name: "idle", Tracer: idle}, {Name: "cell b", Tracer: b}})
	if err != nil {
		t.Fatal(err)
	}
	want := `cell a:
  read           ino=2    dur=300ns spans=3
    50.0% device, 25.0% cpu, 25.0% inflight
  read           ino=3    dur=200ns spans=2
    50.0% cpu, 50.0% copy
  read           ino=1    dur=100ns spans=2
    75.0% device, 25.0% cpu
  write          ino=9    dur=50ns spans=1
    100.0% cpu
cell b:
  read           ino=4    dur=2.000µs spans=2
    50.0% cpu, 50.0% queue
`
	if got := out.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}
