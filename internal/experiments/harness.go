// Package experiments implements one runner per table and figure of the
// paper's evaluation (§5). Every runner provisions fresh systems per cell
// (the paper clears caches between runs), executes the scaled workload,
// and emits a Table whose rows mirror the paper's series. EXPERIMENTS.md
// records the paper-scale parameters, the scaling rule, and the
// paper-vs-measured comparison for each.
package experiments

import (
	"fmt"
	"io"
	"strings"

	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/simtime"
)

// Options controls experiment sizing.
type Options struct {
	// Scale divides the paper's capacities (memory, dataset, key counts).
	// The default (0) selects each experiment's documented scale; tests
	// and benches pass larger divisors via Quick.
	Scale int64
	// Quick shrinks workloads to smoke-test size (unit tests, testing.B).
	Quick bool
	// Seed fixes the random streams.
	Seed int64
}

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
type Runner func(Options) (*Table, error)

// sysConfig bundles the per-cell system parameters.
type sysConfig struct {
	approach crossprefetch.Approach
	memory   int64
	layout   crossprefetch.Layout
	device   blockdev.Config
	raMax    int64 // kernel prefetch limit bytes (0 = 128KB default)
	// Block-layer submission scheduler (per-cell; the EnableBlockSched
	// process switch overrides these for sweeps driven by crossbench).
	plug       bool
	queueDepth int
	congestion simtime.Duration
}

func newSys(c sysConfig) *crossprefetch.System {
	cfg := crossprefetch.Config{
		Approach:         c.approach,
		MemoryBytes:      c.memory,
		Layout:           c.layout,
		KernelRAMaxBytes: c.raMax,
		Plug:             c.plug,
		QueueDepth:       c.queueDepth,
		CongestionLimit:  c.congestion,
	}
	if c.device.Name != "" {
		cfg.Device = c.device
	}
	if sc := blockSched(); sc != nil {
		cfg.Plug = sc.Plug
		if sc.QueueDepth > 0 {
			cfg.QueueDepth = sc.QueueDepth
		}
		if sc.MergeWindowBytes > 0 {
			cfg.MergeWindowBytes = sc.MergeWindowBytes
		}
	}
	cfg.Telemetry = telemetryEnabled()
	if tc := traceConfig(); tc != nil {
		cfg.Trace = true
		cfg.TraceSampleEvery = tc.SampleEvery
		cfg.TracePerInode = tc.PerInode
		cfg.TraceSeed = tc.Seed
	}
	sys := crossprefetch.NewSystem(cfg)
	if cfg.Telemetry {
		registerTelemetry(sysLabel(c), sys)
	}
	return sys
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func mb(v int64) string   { return fmt.Sprintf("%dMB", v>>20) }
func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
