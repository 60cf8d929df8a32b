// Benchmarks: one testing.B per reproduced table and figure. Each bench
// executes the corresponding experiment at smoke-test scale and reports
// the headline simulated metric alongside wall time; run the crossbench
// CLI for paper-scale numbers.
package crossprefetch_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runExperiment executes one registered experiment per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	run, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		rep, err := run(experiments.Options{Quick: true, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		rows = len(rep.Table.Rows)
		reportHeadline(b, rep.Table)
	}
	b.ReportMetric(float64(rows), "rows")
}

// reportHeadline surfaces the experiment's primary metric for the
// CrossP[+predict+opt] (or last) row so bench output is meaningful.
func reportHeadline(b *testing.B, tbl *experiments.Table) {
	metricCol := -1
	for i, c := range tbl.Columns {
		if strings.Contains(c, "MB/s") || strings.Contains(c, "kops") {
			metricCol = i
			break
		}
	}
	if metricCol < 0 || len(tbl.Rows) == 0 {
		return
	}
	row := tbl.Rows[len(tbl.Rows)-1]
	for _, r := range tbl.Rows {
		for _, cell := range r {
			if strings.Contains(cell, "+predict+opt") {
				row = r
			}
		}
	}
	if v, err := strconv.ParseFloat(row[metricCol], 64); err == nil {
		b.ReportMetric(v, strings.ReplaceAll(tbl.Columns[metricCol], "/", "p"))
	}
}

// Figure 2 + Table 1: motivation analysis.
func BenchmarkFig2Motivation(b *testing.B) { runExperiment(b, "fig2") }

// Figure 5 + Table 3: microbenchmark grid.
func BenchmarkFig5Microbench(b *testing.B) { runExperiment(b, "fig5") }

// Figure 6: shared-file readers+writers scaling.
func BenchmarkFig6SharedScaling(b *testing.B) { runExperiment(b, "fig6") }

// Table 4: mmap throughput.
func BenchmarkTable4Mmap(b *testing.B) { runExperiment(b, "tab4") }

// Figure 7a: thread-count sensitivity.
func BenchmarkFig7aThreads(b *testing.B) { runExperiment(b, "fig7a") }

// Figure 7b: access patterns on ext4.
func BenchmarkFig7bPatterns(b *testing.B) { runExperiment(b, "fig7b") }

// Figure 7c: memory-capacity sensitivity.
func BenchmarkFig7cMemory(b *testing.B) { runExperiment(b, "fig7c") }

// Figure 7d: access patterns on F2FS.
func BenchmarkFig7dF2FS(b *testing.B) { runExperiment(b, "fig7d") }

// Table 5: incremental breakdown.
func BenchmarkTable5Breakdown(b *testing.B) { runExperiment(b, "tab5") }

// Figure 8a: remote NVMe-oF storage.
func BenchmarkFig8aRemote(b *testing.B) { runExperiment(b, "fig8a") }

// Figure 8b: Filebench multi-instance workloads.
func BenchmarkFig8bFilebench(b *testing.B) { runExperiment(b, "fig8b") }

// Figure 9a: YCSB A-F.
func BenchmarkFig9aYCSB(b *testing.B) { runExperiment(b, "fig9a") }

// Figure 9b: Snappy compression under memory pressure.
func BenchmarkFig9bSnappy(b *testing.B) { runExperiment(b, "fig9b") }

// Figure 10: kernel prefetch-limit sweep.
func BenchmarkFig10Limit(b *testing.B) { runExperiment(b, "fig10") }
