package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promFamily is one metric family's parsed metadata + samples.
type promFamily struct {
	help    string
	typ     string
	samples []promSample
}

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// scanPromText is a strict text-exposition-format (0.0.4) scanner: every
// line must be a HELP, a TYPE, or a well-formed sample; HELP and TYPE
// must precede a family's first sample; label values must use legal
// escaping. It fails the test on the first violation.
func scanPromText(t *testing.T, data []byte) map[string]*promFamily {
	t.Helper()
	fams := make(map[string]*promFamily)
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			b := strings.TrimSuffix(name, suf)
			if b != name {
				if f, ok := fams[b]; ok && f.typ == "histogram" {
					return b
				}
			}
		}
		return name
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", lineno, line)
			}
			if !promNameRe.MatchString(name) {
				t.Fatalf("line %d: illegal metric name %q", lineno, name)
			}
			f := fams[name]
			if f == nil {
				f = &promFamily{}
				fams[name] = f
			}
			if f.help != "" {
				t.Fatalf("line %d: duplicate HELP for %s", lineno, name)
			}
			if len(f.samples) > 0 {
				t.Fatalf("line %d: HELP for %s after its samples", lineno, name)
			}
			f.help = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", lineno, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", lineno, typ)
			}
			f := fams[name]
			if f == nil {
				f = &promFamily{}
				fams[name] = f
			}
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", lineno, name)
			}
			if f.help == "" {
				t.Fatalf("line %d: TYPE for %s precedes its HELP", lineno, name)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", lineno, line)
		}
		name, labels, value := parsePromSample(t, lineno, line)
		famName := base(name)
		f := fams[famName]
		if f == nil || f.typ == "" || f.help == "" {
			t.Fatalf("line %d: sample %s before its family %s declared HELP+TYPE", lineno, name, famName)
		}
		f.samples = append(f.samples, promSample{name: name, labels: labels, value: value})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

// parsePromSample parses `name{k="v",...} value` with strict label-value
// escape checking (only \\, \", and \n escapes are legal).
func parsePromSample(t *testing.T, lineno int, line string) (string, map[string]string, float64) {
	t.Helper()
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		t.Fatalf("line %d: malformed sample %q", lineno, line)
	}
	name := rest[:i]
	if !promNameRe.MatchString(name) {
		t.Fatalf("line %d: illegal metric name %q", lineno, name)
	}
	var labels map[string]string
	rest = rest[i:]
	if rest[0] == '{' {
		labels = make(map[string]string)
		rest = rest[1:]
		for {
			eq := strings.Index(rest, "=")
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("line %d: malformed label in %q", lineno, line)
			}
			key := rest[:eq]
			if !promLabelRe.MatchString(key) {
				t.Fatalf("line %d: illegal label name %q", lineno, key)
			}
			// Scan the quoted value, validating escapes.
			var val strings.Builder
			j := eq + 2
			for {
				if j >= len(rest) {
					t.Fatalf("line %d: unterminated label value in %q", lineno, line)
				}
				c := rest[j]
				if c == '"' {
					break
				}
				if c == '\n' {
					t.Fatalf("line %d: raw newline in label value", lineno)
				}
				if c == '\\' {
					if j+1 >= len(rest) || !strings.ContainsRune(`\"n`, rune(rest[j+1])) {
						t.Fatalf("line %d: illegal escape in label value of %q", lineno, line)
					}
					if rest[j+1] == 'n' {
						val.WriteByte('\n')
					} else {
						val.WriteByte(rest[j+1])
					}
					j += 2
					continue
				}
				val.WriteByte(c)
				j++
			}
			labels[key] = val.String()
			rest = rest[j+1:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			t.Fatalf("line %d: malformed label list in %q", lineno, line)
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	var value float64
	if rest == "+Inf" {
		return name, labels, value
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value %q: %v", lineno, rest, err)
	}
	return name, labels, v
}

// TestPrometheusConformance parses the full exposition with the strict
// scanner and checks the histogram invariants: `le` thresholds strictly
// increasing, cumulative bucket counts monotone, the +Inf bucket equal
// to _count, and _sum/_count present for every histogram family.
func TestPrometheusConformance(t *testing.T) {
	r, _ := consistentRecorder()
	r.Observe(HistDevReadLat, 5000)
	r.Observe(HistDevReadLat, 123456)
	r.RegisterSyscall(0, "read")
	r.ObserveSyscall(0, 900)
	r.ObserveSyscall(0, 90000)
	s := r.Snapshot()
	s.Trace = &TraceStats{SampledRoots: 3, KeptRoots: 2, SampleEvery: 1}

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams := scanPromText(t, buf.Bytes())
	if len(fams) == 0 {
		t.Fatal("no families parsed")
	}

	// Spot-check presence of each section.
	for _, want := range []string{
		"crossprefetch_lib_issued_pages_total",
		"crossprefetch_outcome_events_total",
		"crossprefetch_outcome_pages_total",
		"crossprefetch_origin_inserted_pages_total",
		"crossprefetch_origin_used_pages_total",
		"crossprefetch_origin_wasted_pages_total",
		"crossprefetch_prefetch_to_use_ns",
		"crossprefetch_syscall_read",
		"crossprefetch_events_recorded_total",
		"crossprefetch_tracer_sampled_roots_total",
	} {
		if fams[want] == nil {
			t.Fatalf("exposition missing family %s", want)
		}
	}

	for name, f := range fams {
		if f.typ == "" || f.help == "" {
			t.Fatalf("family %s missing HELP or TYPE", name)
		}
		if f.typ != "histogram" {
			continue
		}
		var lastLe float64 = -1 << 62
		var lastCum float64 = -1
		var infCount, count float64
		haveSum, haveCount, haveInf := false, false, false
		for _, smp := range f.samples {
			switch smp.name {
			case name + "_bucket":
				le := smp.labels["le"]
				if le == "" {
					t.Fatalf("%s: bucket without le label", name)
				}
				var thr float64
				if le == "+Inf" {
					haveInf = true
					infCount = smp.value
					thr = 1 << 62
				} else {
					v, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("%s: bad le %q", name, le)
					}
					thr = v
				}
				if thr <= lastLe {
					t.Fatalf("%s: le thresholds not increasing (%v after %v)", name, thr, lastLe)
				}
				if smp.value < lastCum {
					t.Fatalf("%s: cumulative bucket counts not monotone (%v after %v)",
						name, smp.value, lastCum)
				}
				lastLe, lastCum = thr, smp.value
			case name + "_sum":
				haveSum = true
			case name + "_count":
				haveCount = true
				count = smp.value
			default:
				t.Fatalf("%s: unexpected sample %s in histogram family", name, smp.name)
			}
		}
		if !haveSum || !haveCount || !haveInf {
			t.Fatalf("%s: histogram missing _sum/_count/+Inf (%v/%v/%v)",
				name, haveSum, haveCount, haveInf)
		}
		if infCount != count {
			t.Fatalf("%s: +Inf bucket %v != _count %v", name, infCount, count)
		}
	}
}

// TestPrometheusLabelEscaping drives the escaper through the three
// characters the format requires escaping.
func TestPrometheusLabelEscaping(t *testing.T) {
	in := "a\"b\\c\nd"
	got := promLabel(in)
	want := `a\"b\\c\nd`
	if got != want {
		t.Fatalf("promLabel(%q) = %q, want %q", in, got, want)
	}
	// Round-trip through the strict sample parser.
	line := fmt.Sprintf(`m_total{outcome="%s"} 1`, got)
	_, labels, _ := parsePromSample(t, 0, line)
	if labels["outcome"] != in {
		t.Fatalf("round-trip = %q, want %q", labels["outcome"], in)
	}
}

// checkTable is the completeness rule of one descriptor table: every row
// has an export name no other row has and, where the Prometheus writer
// prints a family per row, HELP text. A constant declared without its row
// leaves a zero row, which is what the rule rejects.
func checkTable(kind string, rows []desc, wantHelp bool) error {
	seen := make(map[string]int, len(rows))
	for i, d := range rows {
		if d.name == "" {
			return fmt.Errorf("%s %d has no export name", kind, i)
		}
		if wantHelp && d.help == "" {
			return fmt.Errorf("%s %s has no HELP text", kind, d.name)
		}
		if j, dup := seen[d.name]; dup {
			return fmt.Errorf("%s %d and %d share the export name %q", kind, j, i, d.name)
		}
		seen[d.name] = i
	}
	return nil
}

// TestHelpTablesComplete is the one descriptor test: it holds what the
// ctrgate grep over telemetry.go and prometheus.go used to. Each table
// passes checkTable, and — the negative leg, without which the check could
// be vacuous — the same table with its last row blanked (a new constant
// nobody described), stripped of its help, or named like its first row is
// rejected.
func TestHelpTablesComplete(t *testing.T) {
	named := func(names []string) []desc {
		rows := make([]desc, len(names))
		for i, n := range names {
			rows[i].name = n
		}
		return rows
	}
	for _, tb := range []struct {
		kind     string
		rows     []desc
		wantHelp bool
	}{
		{"counter", counterDescs[:], true},
		{"outcome", named(outcomeNames[:]), false},
		{"origin", named(originNames[:]), false},
		{"arm", named(armNames[:]), false},
		{"histogram", histDescs[:], true},
	} {
		if err := checkTable(tb.kind, tb.rows, tb.wantHelp); err != nil {
			t.Error(err)
		}
		last := len(tb.rows) - 1
		broken := map[string]desc{"blanked": {}, "duplicated": tb.rows[0]}
		if tb.wantHelp {
			broken["help-less"] = desc{name: tb.rows[last].name}
		}
		for how, row := range broken {
			rows := append([]desc(nil), tb.rows...)
			rows[last] = row
			if checkTable(tb.kind, rows, tb.wantHelp) == nil {
				t.Errorf("%s table with its last row %s was accepted", tb.kind, how)
			}
		}
	}
}
