package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	crossprefetch "repro"
	"repro/internal/telemetry"
)

// quickOpts shrinks every experiment to smoke-test size.
func quickOpts() Options { return Options{Quick: true, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	// Every table and figure from the paper's evaluation must be present.
	want := []string{"fig2", "fig5", "fig6", "tab4", "fig7a", "fig7b",
		"fig7c", "fig7d", "tab5", "fig8a", "fig8b", "fig9a", "fig9b", "fig10"}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
		if Describe(id) == "" {
			t.Errorf("experiment %s has no description", id)
		}
	}
	// Extra registered experiments (the serving-tier sweeps, chaos) are
	// allowed beyond the paper's core set.
	if len(IDs()) < len(want) {
		t.Errorf("registry has %d entries, want >= %d", len(IDs()), len(want))
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown ID should error")
	}
}

// cell looks up a row by leading-column values and returns the named column.
func cell(t *testing.T, tbl *Table, col string, match ...string) float64 {
	t.Helper()
	ci := -1
	for i, c := range tbl.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("%s: no column %q in %v", tbl.ID, col, tbl.Columns)
	}
rows:
	for _, row := range tbl.Rows {
		for i, m := range match {
			if row[i] != m {
				continue rows
			}
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[ci], "x"), 64)
		if err != nil {
			t.Fatalf("%s: cell %q not numeric", tbl.ID, row[ci])
		}
		return v
	}
	t.Fatalf("%s: no row matching %v", tbl.ID, match)
	return 0
}

// archivedKeys returns the keys, in file order, of the first record of
// the committed full-scale archive testdata/sweeps/<id>.json.
func archivedKeys(t *testing.T, id string) []string {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "sweeps", id+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []json.RawMessage
	if err := json.Unmarshal(data, &records); err != nil || len(records) == 0 {
		t.Fatalf("%s: %d records, %v", path, len(records), err)
	}
	dec := json.NewDecoder(bytes.NewReader(records[0]))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatalf("%s: %v", path, err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		keys = append(keys, key.(string))
		var value json.RawMessage // skipped whole, whatever its shape
		if err := dec.Decode(&value); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return keys
}

// runQuick runs id at quick scale and checks the report's shape: no
// ragged rows, and — where the experiment archives records — every
// record's keys those of its committed archive, in order. `make digests`
// pins the archives' values, but their schema only through a full
// re-record.
func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	return runOpts(t, id, quickOpts())
}

// runOpts is runQuick under o.
func runOpts(t *testing.T, id string, o Options) *Report {
	t.Helper()
	run, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("%s: ragged row %v", id, row)
		}
	}
	if len(rep.Records) == 0 {
		return rep
	}
	if len(rep.Records) != len(tbl.Rows) {
		t.Fatalf("%s: %d records for %d rows", id, len(rep.Records), len(tbl.Rows))
	}
	want := archivedKeys(t, id)
	for i, rec := range rep.Records {
		var keys []string
		for _, f := range rec {
			keys = append(keys, f.key)
		}
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("%s record %d keys\n got %v\nwant %v", id, i, keys, want)
		}
	}
	return rep
}

// The paper experiments assert their shapes in their contracts; a run
// that returns is one whose every cell reproduced on rerun.
func TestFig2Quick(t *testing.T)   { t.Parallel(); runQuick(t, "fig2") }
func TestFig6Quick(t *testing.T)   { t.Parallel(); runQuick(t, "fig6") }
func TestTable4Quick(t *testing.T) { t.Parallel(); runQuick(t, "tab4") }
func TestFig7aQuick(t *testing.T)  { t.Parallel(); runQuick(t, "fig7a") }
func TestFig7bQuick(t *testing.T)  { t.Parallel(); runQuick(t, "fig7b") }
func TestFig7cQuick(t *testing.T)  { t.Parallel(); runQuick(t, "fig7c") }
func TestFig7dQuick(t *testing.T)  { t.Parallel(); runQuick(t, "fig7d") }
func TestTable5Quick(t *testing.T) { t.Parallel(); runQuick(t, "tab5") }
func TestFig8aQuick(t *testing.T)  { t.Parallel(); runQuick(t, "fig8a") }
func TestFig10Quick(t *testing.T)  { t.Parallel(); runQuick(t, "fig10") }

// TestFig5Quick also holds render to its word: a field list without JSON
// keys renders no records, so -json writes no file of empty objects.
func TestFig5Quick(t *testing.T) {
	t.Parallel()
	if rep := runQuick(t, "fig5"); len(rep.Records) != 0 {
		t.Fatalf("fig5 rendered %d records, want none", len(rep.Records))
	}
}

// TestChaosQuick runs the fault-injection sweep; its contract asserts
// byte-correctness, breaker trip + recovery under transient faults,
// bounded slowdown, and read errors from a dead range.
func TestChaosQuick(t *testing.T) { t.Parallel(); runQuick(t, "chaos") }

func TestFig8bQuick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow")
	}
	runQuick(t, "fig8b")
}

func TestFig9aQuick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow")
	}
	runQuick(t, "fig9a")
}

func TestFig9bQuick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow")
	}
	runQuick(t, "fig9b")
}

// TestTierQuick runs the tiered-stack sweep; the runner itself asserts
// byte-correctness, the per-backend telemetry audit partition,
// run-to-run determinism via digest comparison, the width-2 striping
// speedup, the cross-tier-prefetch warm-hit floor, and the p99 win over
// the prefetch-off tiered cell. Here we pin the headline shape to its
// cells.
func TestTierQuick(t *testing.T) {
	t.Parallel()
	tbl := runQuick(t, "tier").Table
	if len(tbl.Rows) != 18 {
		t.Fatalf("tier produced %d rows, want 18", len(tbl.Rows))
	}
	w1 := cell(t, tbl, "warm-pages/s", "sequential", "w1-local")
	w2 := cell(t, tbl, "warm-pages/s", "sequential", "w2-local")
	if w2 < 1.7*w1 {
		t.Errorf("width-2 sequential pages/s %.0f below 1.7x width-1 %.0f", w2, w1)
	}
	localHit := cell(t, tbl, "warm-hit", "sequential", "w1-local")
	pfHit := cell(t, tbl, "warm-hit", "sequential", "w1-remote+pf")
	if pfHit < 0.7*localHit {
		t.Errorf("cross-tier prefetch warm hit %.3f below 70%% of all-local %.3f", pfHit, localHit)
	}
	pfP99 := cell(t, tbl, "p99-us", "sequential", "w1-remote+pf")
	noP99 := cell(t, tbl, "p99-us", "sequential", "w1-remote")
	if pfP99 >= noP99 {
		t.Errorf("cross-tier prefetch p99 %.1fus should beat prefetch-off tiered %.1fus", pfP99, noP99)
	}
	if got := cell(t, tbl, "pf-promo", "sequential", "w1-remote+pf"); got < 1 {
		t.Errorf("cross-tier prefetch promotions = %v, want >= 1", got)
	}
	// Reads land extents only in free local capacity: the cap stops
	// promotion.
	for _, p := range tierPatterns {
		capped := cell(t, tbl, "promo", p.name, "w1-remote+pf-cap")
		if open := cell(t, tbl, "promo", p.name, "w1-remote+pf"); capped >= open {
			t.Errorf("%s capped cell promotions = %v, want fewer than uncapped %v", p.name, capped, open)
		}
	}
	// Tier-off cells must never touch the tier machinery.
	if got := cell(t, tbl, "promo", "sequential", "w2-local"); got != 0 {
		t.Errorf("local cell saw %v promotions, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
	}
	tbl.AddRow("1", "two")
	tbl.AddRow("longer", "3")
	tbl.Note("n=%d", 7)

	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "note: n=7") {
		t.Fatalf("bad text render:\n%s", out)
	}

	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.HasPrefix(got, "a,b\n1,two\n") {
		t.Fatalf("bad csv:\n%s", got)
	}
}

func TestCSVEscaping(t *testing.T) {
	t.Parallel()
	tbl := &Table{ID: "x", Columns: []string{"c"}}
	tbl.AddRow(`va"l,ue`)
	var buf bytes.Buffer
	tbl.WriteCSV(&buf)
	if !strings.Contains(buf.String(), `"va""l,ue"`) {
		t.Fatalf("csv escaping wrong: %s", buf.String())
	}
}

// TestTelemetryDrainAuditsEverySystem: under Options.Telemetry and
// full-sampling Options.Trace a report lists exactly one system per cell
// (not one per rerun), in cell order, each traced and passing the audit,
// serve's rings included; Observe is handed both runs' systems.
func TestTelemetryDrainAuditsEverySystem(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig5", "serve"} {
		observed := 0
		o := quickOpts()
		o.Telemetry = true
		o.Trace = &telemetry.TraceConfig{SampleEvery: 1}
		o.Observe = func(*crossprefetch.System) { observed++ }
		rep := runOpts(t, id, o)
		rows := rep.Table.Rows
		if len(rep.Systems) != len(rows) {
			t.Fatalf("%s: %d systems listed for %d cells", id, len(rep.Systems), len(rows))
		}
		if observed != 2*len(rows) {
			t.Errorf("%s: Observe saw %d systems for %d cells run twice", id, observed, len(rows))
		}
		for i, cs := range rep.Systems {
			if want := strings.Join(rows[i][:2], "/"); id == "fig5" && cs.Cell != want {
				t.Errorf("%s system %d is cell %q, want %q", id, i, cs.Cell, want)
			}
			if err := cs.Sys.AuditTelemetry(); err != nil {
				t.Errorf("%s %s: %v", id, cs.Cell, err)
			}
			if cs.Sys.Tracer() == nil || cs.Sys.Tracer().Config().SampleEvery != 1 {
				t.Errorf("%s %s: not traced at full sampling", id, cs.Cell)
			}
		}
	}
}

// TestSweepRunGuards: a cell whose rerun on the same seed renders a
// different value fails the sweep, and so does a failing contract, under
// the sweep's ID.
func TestSweepRunGuards(t *testing.T) {
	t.Parallel()
	type res struct{ v int }
	calls := 0
	s := sweep[*res]{
		table:  &Table{ID: "guard"},
		fields: []field[*res]{{"v", "", "%d", func(r *res) any { return r.v }}},
		cells: []sweepCell[*res]{{
			name: "drifts",
			cfg:  crossprefetch.Config{Approach: crossprefetch.OSOnly, MemoryBytes: 8 << 20},
			replay: func(*cellRun) (*res, error) {
				calls++
				return &res{calls}, nil
			},
		}},
	}
	if _, err := s.run(Options{}); err == nil || !strings.Contains(err.Error(), "guard drifts: rerun on the same seed differs") {
		t.Fatalf("drifting rerun: err = %v", err)
	}
	s.cells[0].replay = func(*cellRun) (*res, error) { return &res{7}, nil }
	s.contract = func(rows []*res, at func(string) *res) error {
		if len(rows) != 1 || at("drifts") != rows[0] {
			t.Errorf("contract sees rows %v", rows)
		}
		return errors.New("shape broken")
	}
	if _, err := s.run(Options{}); err == nil || err.Error() != "guard: shape broken" {
		t.Fatalf("failing contract: err = %v", err)
	}
	s.contract = nil
	rep, err := s.run(Options{})
	if err != nil || len(rep.Table.Rows) != 1 || rep.Table.Rows[0][0] != "7" {
		t.Fatalf("clean sweep: %v, %+v", err, rep)
	}
}

func TestTelemetryDisabledRegistersNothing(t *testing.T) {
	t.Parallel()
	if got := runQuick(t, "fig6").Systems; len(got) != 0 {
		t.Fatalf("systems listed while telemetry disabled: %d", len(got))
	}
}

// TestServeQuick runs the serve frontend comparison; its contract holds
// the rings to identical client bytes, at most half the sync baseline's
// crossings per op and a mean dispatch depth of at least 2. Its systems
// record telemetry for their own audit, but options that ask for none
// list none.
func TestServeQuick(t *testing.T) {
	t.Parallel()
	if got := runQuick(t, "serve").Systems; len(got) != 0 {
		t.Fatalf("serve listed %d systems under options without telemetry", len(got))
	}
}

// TestOverloadQuick runs the tenant-isolation sweep; the runner itself
// asserts byte-correctness, the per-cell telemetry audit (including the
// exact tenant partition of residency), the 2x-of-isolated victim p99
// bound in every budgeted cell, identical victim client bytes in every
// cell, and run-to-run determinism via digest comparison. Here we pin
// the overload machinery's visible signals to their cells.
func TestOverloadQuick(t *testing.T) {
	t.Parallel()
	tbl := runQuick(t, "overload").Table
	if len(tbl.Rows) != 4 {
		t.Fatalf("overload produced %d rows, want 4", len(tbl.Rows))
	}
	base := cell(t, tbl, "victim-MB", "isolated")
	for _, c := range []string{"no-budget", "budget", "budget+deadline"} {
		if got := cell(t, tbl, "victim-MB", c); got != base {
			t.Errorf("%s victim bytes %.1fMB differ from isolated %.1fMB", c, got, base)
		}
	}
	if got := cell(t, tbl, "t-reclaims", "budget"); got < 1 {
		t.Errorf("budget cell tenant reclaims = %v, want >= 1", got)
	}
	if got := cell(t, tbl, "shed-sqes", "budget+deadline"); got < 1 {
		t.Errorf("budget+deadline shed SQEs = %v, want >= 1", got)
	}
	// Hard-budget reclaim takes the antagonist's oldest pages, and at this
	// scale no victim prefetch then completes past its deadline; when
	// reclaim took them list stripe by list stripe, 61 did. The
	// late-completion path itself is TestDeadlineShedAndMiss's
	// (internal/crosslib).
	if got := cell(t, tbl, "dl-miss", "budget+deadline"); got != 0 {
		t.Errorf("budget+deadline deadline misses = %v, want 0", got)
	}
}

// TestScoreQuick runs the scorecard sweep; the runner itself asserts
// byte-correctness, the scorecard-vs-recorder origin partition, and
// byte-identical scorecard JSON across the rerun. Here we pin the
// discrimination the scorecards exist for to its cells.
func TestScoreQuick(t *testing.T) {
	t.Parallel()
	tbl := runQuick(t, "score").Table
	if len(tbl.Rows) != 4 {
		t.Fatalf("score produced %d rows, want 4", len(tbl.Rows))
	}
	if got := cell(t, tbl, "accuracy", "sequential"); got < 0.75 {
		t.Errorf("sequential accuracy = %v, want >= 0.75", got)
	}
	if got := cell(t, tbl, "accuracy", "zipfian"); got > 0.5 {
		t.Errorf("zipfian accuracy = %v, want <= 0.5", got)
	}
	seq, zipf := cell(t, tbl, "pollution", "sequential"), cell(t, tbl, "pollution", "zipfian")
	if zipf < seq+0.3 {
		t.Errorf("zipfian pollution %v should exceed sequential %v by >= 0.3", zipf, seq)
	}
}

// TestPredictQuick runs the competing-predictor sweep; the runner itself
// asserts byte-correctness, the per-arm telemetry audit partition,
// run-to-run determinism via digest comparison, the zipfian-LSM win, and
// the sequential/interleaved guardrails. Here we pin the headline shape
// to its cells: the ensemble must beat the fixed counter on both warm
// metrics under zipfian-LSM, and the bandit must land on the right arm
// per pattern.
func TestPredictQuick(t *testing.T) {
	t.Parallel()
	tbl := runQuick(t, "predict").Table
	if len(tbl.Rows) != 6 {
		t.Fatalf("predict produced %d rows, want 6", len(tbl.Rows))
	}
	fh := cell(t, tbl, "warm-hit", "zipfian-lsm", "fixed")
	eh := cell(t, tbl, "warm-hit", "zipfian-lsm", "ensemble")
	if eh <= fh {
		t.Errorf("ensemble zipfian warm-hit %.3f should beat fixed %.3f", eh, fh)
	}
	fp := cell(t, tbl, "warm-pages/s", "zipfian-lsm", "fixed")
	ep := cell(t, tbl, "warm-pages/s", "zipfian-lsm", "ensemble")
	if ep <= fp {
		t.Errorf("ensemble zipfian warm-pages/s %.0f should beat fixed %.0f", ep, fp)
	}
	if got := cell(t, tbl, "promotions", "zipfian-lsm", "ensemble"); got < 1 {
		t.Errorf("ensemble zipfian promotions = %v, want >= 1", got)
	}
	arm := func(pattern, mode string) string {
		t.Helper()
		for _, row := range tbl.Rows {
			if row[0] == pattern && row[1] == mode {
				return row[4]
			}
		}
		t.Fatalf("no row %s/%s", pattern, mode)
		return ""
	}
	if got := arm("zipfian-lsm", "ensemble"); got != "mithril" {
		t.Errorf("zipfian ensemble live arm = %q, want mithril", got)
	}
	for _, p := range []string{"sequential", "zipfian-lsm", "interleaved-shared"} {
		if got := arm(p, "fixed"); got != "counter" {
			t.Errorf("%s fixed live arm = %q, want counter", p, got)
		}
	}
}
