package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promName sanitizes s into a legal Prometheus metric-name fragment
// (the snapshot keys are snake_case already; outcome names carry '-').
func promName(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// promLabel escapes a label value per the text exposition format
// (backslash, double quote, and newline must be escaped).
func promLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// byName lists a table's n identifiers in export-name order — the order
// every section of the exposition prints in — so the writer sorts nothing.
func byName(n int, name func(i int) string) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return name(order[a]) < name(order[b]) })
	return order
}

var (
	countersByName = byName(int(numCounters), func(i int) string { return counterDescs[i].name })
	outcomesByName = byName(int(numOutcomes), func(i int) string { return outcomeNames[i] })
	originsByName  = byName(numOrigins, func(i int) string { return originNames[i] })
	armsByName     = byName(numArms, func(i int) string { return armNames[i] })
	histsByName    = byName(int(numHists), func(i int) string { return histDescs[i].name })
)

// WritePrometheus writes the snapshot in Prometheus text exposition
// format (version 0.0.4), so bench runs can be diffed and graphed with
// standard tooling. Every family carries HELP and TYPE metadata. Metric
// families, in order:
//
//	crossprefetch_<counter>_total                      cross-layer counters
//	crossprefetch_outcome_{events,pages}_total{outcome=...}
//	crossprefetch_origin_{inserted,used,wasted}_pages_total{origin=...}
//	crossprefetch_arm_{inserted,used,wasted}_pages_total{arm=...}
//	crossprefetch_<hist>{_bucket{le=...},_sum,_count}  log2 histograms
//	crossprefetch_syscall_<name>{_bucket,...}          per-syscall latency
//	crossprefetch_events_{recorded,dropped}_total      decision-trace ring
//	crossprefetch_tracer_*                             span tracer accounting
//
// Output is deterministic: every section prints in export-name order — the
// declared kinds from their tables over the snapshot's typed arrays, the
// syscall and backend families, which are registered by name at run time,
// from the snapshot's maps.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, c := range countersByName {
		m := "crossprefetch_" + promName(counterDescs[c].name) + "_total"
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", m, counterDescs[c].help, m, m, s.counters[c])
	}
	p("# HELP crossprefetch_outcome_events_total Prefetch-decision trace events by outcome.\n")
	p("# TYPE crossprefetch_outcome_events_total counter\n")
	for _, o := range outcomesByName {
		p("crossprefetch_outcome_events_total{outcome=\"%s\"} %d\n", promLabel(outcomeNames[o]), s.outcomes[o].Events)
	}
	p("# HELP crossprefetch_outcome_pages_total Pages covered by prefetch-decision trace events, by outcome.\n")
	p("# TYPE crossprefetch_outcome_pages_total counter\n")
	for _, o := range outcomesByName {
		p("crossprefetch_outcome_pages_total{outcome=\"%s\"} %d\n", promLabel(outcomeNames[o]), s.outcomes[o].Pages)
	}
	// ledger prints the {inserted, used, wasted} families of one provenance
	// axis, a sample per label value in each.
	ledger := func(label string, order []int, names []string, cells []OriginStat, help [3]string) {
		for k, col := range [3]string{"inserted", "used", "wasted"} {
			m := "crossprefetch_" + label + "_" + col + "_pages_total"
			p("# HELP %s %s\n# TYPE %s counter\n", m, help[k], m)
			for _, i := range order {
				c := cells[i]
				p("%s{%s=\"%s\"} %d\n", m, label, promLabel(names[i]), [3]int64{c.Inserted, c.Used, c.Wasted}[k])
			}
		}
	}
	ledger("origin", originsByName, originNames[:], s.origins[:], [3]string{
		"Pages inserted into the cache by insertion origin (partition of cache_inserted_pages).",
		"Prefetched pages first used by a reader, by origin (partition of prefetch_hit_pages).",
		"Prefetched pages evicted unused, by origin (partition of prefetch_wasted_pages).",
	})
	ledger("arm", armsByName, armNames[:], s.arms[:], [3]string{
		"Prefetch-credit pages inserted by predictor arm (partition of the prefetch-origin ledger; arm=none covers prefetches no ensemble arm drove).",
		"Prefetched pages first used by a reader, by predictor arm.",
		"Prefetched pages evicted unused, by predictor arm.",
	})
	writeHist := func(metric, help string, h HistogramSnapshot) {
		p("# HELP %s %s\n# TYPE %s histogram\n", metric, help, metric)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			// Log2 bucket [Lo, Hi) of integer samples = le Hi-1 inclusive.
			p("%s_bucket{le=\"%d\"} %d\n", metric, b.Hi-1, cum)
		}
		p("%s_bucket{le=\"+Inf\"} %d\n", metric, h.Count)
		p("%s_sum %d\n%s_count %d\n", metric, h.Sum, metric, h.Count)
	}
	for _, h := range histsByName {
		writeHist("crossprefetch_"+promName(histDescs[h].name), histDescs[h].help, s.hists[h])
	}
	for _, name := range sortedKeys(s.Syscalls) {
		writeHist("crossprefetch_syscall_"+promName(name),
			"Per-syscall latency, virtual nanoseconds (log2 buckets).", s.Syscalls[name])
	}
	if len(s.Backends) > 0 {
		for _, fam := range []struct {
			name, help string
			val        func(BackendSnapshot) int64
		}{
			{"backend_commands_total", "Completed device commands per stack backend (partition of device_commands).", func(b BackendSnapshot) int64 { return b.Commands }},
			{"backend_read_bytes_total", "Bytes read per stack backend (partition of device_read_bytes).", func(b BackendSnapshot) int64 { return b.ReadBytes }},
			{"backend_write_bytes_total", "Bytes written per stack backend (partition of device_write_bytes).", func(b BackendSnapshot) int64 { return b.WriteBytes }},
		} {
			m := "crossprefetch_" + fam.name
			p("# HELP %s %s\n# TYPE %s counter\n", m, fam.help, m)
			for _, name := range sortedKeys(s.Backends) {
				p("%s{backend=\"%s\"} %d\n", m, promLabel(name), fam.val(s.Backends[name]))
			}
		}
		for _, name := range sortedKeys(s.Backends) {
			b := s.Backends[name]
			writeHist("crossprefetch_backend_queue_wait_"+promName(name),
				"Per-backend command queue wait (submit to admission), virtual nanoseconds (log2 buckets).", b.QueueWait)
			writeHist("crossprefetch_backend_service_"+promName(name),
				"Per-backend command service time (admission to completion), virtual nanoseconds (log2 buckets).", b.Service)
		}
	}
	p("# HELP crossprefetch_events_recorded_total Decision-trace events recorded (ring-buffered; counters stay exact past the cap).\n")
	p("# TYPE crossprefetch_events_recorded_total counter\ncrossprefetch_events_recorded_total %d\n", s.EventsTotal)
	p("# HELP crossprefetch_events_dropped_total Decision-trace events dropped by the bounded ring.\n")
	p("# TYPE crossprefetch_events_dropped_total counter\ncrossprefetch_events_dropped_total %d\n", s.EventsDropped)
	if t := s.Trace; t != nil {
		for _, g := range []struct {
			name, help string
			v          int64
		}{
			{"tracer_sampled_roots_total", "Root operations the span tracer sampled.", t.SampledRoots},
			{"tracer_skipped_roots_total", "Root operations the span tracer skipped.", t.SkippedRoots},
			{"tracer_kept_roots", "Root spans currently retained by the flight recorder.", t.KeptRoots},
			{"tracer_dropped_roots_total", "Completed sampled roots the flight recorder let go.", t.DroppedRoots},
			{"tracer_dropped_spans_total", "Child spans cut by the per-root cap.", t.DroppedSpans},
			{"tracer_demand_pages_total", "Demand-read pages observed under sampled roots.", t.DemandPages},
			{"tracer_prefetch_pages_total", "Prefetch pages observed under sampled roots.", t.PrefetchPages},
			{"tracer_sample_every", "Sampling rate: 1-in-N top-level operations.", t.SampleEvery},
		} {
			p("# HELP crossprefetch_%s %s\n# TYPE crossprefetch_%s gauge\ncrossprefetch_%s %d\n",
				g.name, g.help, g.name, g.name, g.v)
		}
	}
	return err
}
