// Package experiments implements one runner per table and figure of the
// paper's evaluation (§5). Every runner declares a cell table on
// sweep.run (sweep.go): each cell runs the scaled workload on a fresh
// system (the paper clears caches between runs), twice, and must
// reproduce itself; the rows form a Table that mirrors the paper's
// series. EXPERIMENTS.md records the paper-scale parameters, the scaling
// rule, and the paper-vs-measured comparison for each.
package experiments

import (
	"fmt"
	"io"
	"strings"

	crossprefetch "repro"
	"repro/internal/telemetry"
)

// Options controls experiment sizing and what every cell's system records.
type Options struct {
	// Scale divides the paper's capacities (memory, dataset, key counts).
	// The default (0) selects each experiment's documented scale; tests
	// and benches pass larger divisors via Quick.
	Scale int64
	// Quick shrinks workloads to smoke-test size (unit tests, testing.B).
	Quick bool
	// Seed fixes the random streams.
	Seed int64
	// Telemetry records cross-layer telemetry in every cell's system, so
	// each one is audited and listed in Report.Systems.
	Telemetry bool
	// Trace, when set, traces spans in every cell's system with this
	// sampling, and implies Telemetry: the audit reconciles the spans
	// against the counters.
	Trace *telemetry.TraceConfig
	// Observe, when set, is handed every system a cell builds before its
	// replay starts: crossbench -admin points the live plane at it.
	Observe func(*crossprefetch.System)
}

// recording reports whether every cell's system records telemetry.
func (o Options) recording() bool { return o.Telemetry || o.Trace != nil }

func (o Options) scale(def int64) int64 {
	if o.Scale > 0 {
		return o.Scale
	}
	if o.Quick {
		return def * 8
	}
	return def
}

// Table is one reproduced table or figure.
type Table struct {
	ID      string // e.g. "fig7a"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	rows := append([][]string{t.Columns}, t.Rows...)
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Runner executes one experiment.
type Runner func(Options) (*Report, error)

// newSys builds a cell's system from cfg, with whatever recording o
// adds: it only ever turns recording on.
func newSys(o Options, cfg crossprefetch.Config) *crossprefetch.System {
	cfg.Telemetry = cfg.Telemetry || o.recording()
	if tc := o.Trace; tc != nil {
		cfg.Trace = true
		cfg.TraceSampleEvery = tc.SampleEvery
		cfg.TracePerInode = tc.PerInode
		cfg.TraceSeed = tc.Seed
	}
	return crossprefetch.NewSystem(cfg)
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func mb(v int64) string   { return fmt.Sprintf("%dMB", v>>20) }

// row is one cell of a paper table: the labels that lead its table row
// and what the cell's workload driver measured.
type row[T any] struct {
	group, name string // group is "" in a table of one group
	res         T
	// vs is the row's headline metric over its group's baseline row;
	// vsFirst fills it in the contract.
	vs float64
}

// cellOf declares the paper cell group/name: a fresh system from cfg,
// handed to run.
func cellOf[T any](group, name string, cfg crossprefetch.Config, run func(*crossprefetch.System) (T, error)) sweepCell[*row[T]] {
	full := name
	if group != "" {
		full = group + "/" + name
	}
	return sweepCell[*row[T]]{
		name: full,
		cfg:  cfg,
		replay: func(r *cellRun) (*row[T], error) {
			res, err := run(r.sys)
			return &row[T]{group: group, name: name, res: res}, err
		},
	}
}

// labels declares a paper table's leading columns: the group's (none
// when groupCol is "") and the cell name's.
func labels[T any](groupCol, nameCol string) []field[*row[T]] {
	name := field[*row[T]]{nameCol, "", "%s", func(r *row[T]) any { return r.name }}
	if groupCol == "" {
		return []field[*row[T]]{name}
	}
	return []field[*row[T]]{{groupCol, "", "%s", func(r *row[T]) any { return r.group }}, name}
}

// metric declares a column read off the driver's result.
func metric[T any](col, verb string, get func(T) any) field[*row[T]] {
	return field[*row[T]]{col, "", verb, func(r *row[T]) any { return get(r.res) }}
}

// keyed archives f in the JSON record under key.
func keyed[R any](key string, f field[R]) field[R] {
	f.key = key
	return f
}

// vsCol declares the column vsFirst fills.
func vsCol[T any](col string) field[*row[T]] {
	return field[*row[T]]{col, "", "%.2fx", func(r *row[T]) any { return r.vs }}
}

// vsFirst is a contract that fills every row's vs: its headline metric
// over that of the first row of its group, the table's baseline (APPonly,
// plug-off, the fault-free plan).
func vsFirst[T any](of func(T) float64) func([]*row[T], func(string) *row[T]) error {
	return func(rows []*row[T], _ func(string) *row[T]) error {
		var base *row[T]
		for _, r := range rows {
			if base == nil || r.group != base.group {
				base = r
			}
			r.vs = of(r.res) / of(base.res)
		}
		return nil
	}
}
