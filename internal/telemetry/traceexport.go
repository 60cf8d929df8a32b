package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/simtime"
)

// PathSlice is one bucket of a critical-path decomposition: how much of
// a root span's duration is attributable to one time category.
type PathSlice struct {
	Category Category `json:"-"`
	Name     string   `json:"category"`
	Ns       int64    `json:"ns"`
	Percent  float64  `json:"percent"`
}

// CriticalPath decomposes a completed root span's duration into time
// categories by exclusive attribution: each instant of the root's
// [start, end) window is charged to the deepest span covering it (to its
// category), so the slice durations sum exactly to the root duration —
// nothing is double-counted and nothing is lost. Children extending past
// their parent (async device reservations recorded as explicit
// intervals) are clamped to the parent's window; overlapping siblings
// are clamped to the running cursor, earlier span wins. Slices are
// returned largest first, zero categories omitted.
func CriticalPath(root *Span) []PathSlice {
	if root == nil {
		return nil
	}
	var acct [numCategories]simtime.Duration
	attributePath(root, root.start, root.end, &acct)
	total := root.Duration()
	out := make([]PathSlice, 0, numCategories)
	for c := Category(0); c < numCategories; c++ {
		d := acct[c]
		if d == 0 {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		out = append(out, PathSlice{Category: c, Name: c.String(), Ns: int64(d), Percent: pct})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ns > out[j].Ns })
	return out
}

// attributePath charges s's window [lo, hi) to categories: sub-windows
// covered by a child recurse into it; uncovered gaps go to s's own
// category.
func attributePath(s *Span, lo, hi simtime.Time, acct *[numCategories]simtime.Duration) {
	if hi <= lo {
		return
	}
	children := s.children
	if !sort.SliceIsSorted(children, func(i, j int) bool { return children[i].start < children[j].start }) {
		children = append([]*Span(nil), children...)
		sort.SliceStable(children, func(i, j int) bool { return children[i].start < children[j].start })
	}
	cursor := lo
	for _, c := range children {
		cs, ce := c.start, c.end
		if cs < cursor {
			cs = cursor
		}
		if ce > hi {
			ce = hi
		}
		if ce <= cs {
			continue
		}
		(*acct)[s.cat] += cs.Sub(cursor)
		attributePath(c, cs, ce, acct)
		cursor = ce
	}
	(*acct)[s.cat] += hi.Sub(cursor)
}

// FormatCriticalPath renders a decomposition as a one-line report, e.g.
// "62.0% device, 21.3% queue, 11.1% retry, 5.6% cpu".
func FormatCriticalPath(slices []PathSlice) string {
	if len(slices) == 0 {
		return "empty"
	}
	parts := make([]string, len(slices))
	for i, sl := range slices {
		parts[i] = fmt.Sprintf("%.1f%% %s", sl.Percent, sl.Name)
	}
	return strings.Join(parts, ", ")
}

// TraceProcess names one tracer for export; each becomes a Perfetto
// process row with its retained roots as threads.
type TraceProcess struct {
	Name   string
	Tracer *Tracer
}

// chromeEvent is one Chrome trace-event object. Complete spans use
// ph="X" with ts/dur in microseconds; process/thread names use ph="M"
// metadata events.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format of the Chrome trace-event spec
// (the format Perfetto loads).
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// usec converts a virtual timestamp to trace microseconds.
func usec(t simtime.Time) float64 { return float64(t) / 1e3 }

// WriteChromeTrace writes the retained roots of the given tracers as
// Chrome trace-event JSON, loadable at https://ui.perfetto.dev. Each
// process is one Perfetto process; each retained root span becomes one
// thread named after its op class, inode, and sample sequence, carrying
// its full span tree plus a critical-path summary on the root's args.
// Output is deterministic for a deterministic run: iteration orders are
// fixed and map keys are sorted by the JSON encoder.
func WriteChromeTrace(w io.Writer, procs []TraceProcess) error {
	events := []chromeEvent{}
	for pid, p := range procs {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": p.Name},
		})
		for tid, root := range p.Tracer.Roots() {
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("%s ino=%d #%d", root.op, root.ino, root.seq)},
			})
			emitSpan(&events, root, pid, tid)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// emitSpan appends s and its subtree as complete ("X") events.
func emitSpan(events *[]chromeEvent, s *Span, pid, tid int) {
	dur := usec(s.end) - usec(s.start)
	args := make(map[string]any, len(s.attrs)+4)
	for _, a := range s.attrs {
		args[a.Key] = a.Val
	}
	if s == s.root {
		args["ino"] = s.ino
		args["seq"] = s.seq
		if s.dropped > 0 {
			args["dropped_spans"] = s.dropped
		}
		if s.pages[PageDemand] > 0 {
			args["demand_pages"] = s.pages[PageDemand]
		}
		if s.pages[PagePrefetch] > 0 {
			args["prefetch_pages"] = s.pages[PagePrefetch]
		}
		args["critical_path"] = FormatCriticalPath(CriticalPath(s))
	}
	if len(args) == 0 {
		args = nil
	}
	*events = append(*events, chromeEvent{
		Name: s.name, Cat: s.cat.String(), Ph: "X",
		Ts: usec(s.start), Dur: &dur, Pid: pid, Tid: tid, Args: args,
	})
	for _, c := range s.children {
		emitSpan(events, c, pid, tid)
	}
}

// WriteCriticalPathReport writes a plain-text critical-path report of
// every retained root, slowest first within each op class: one line of
// identity and duration, one line of decomposition.
func WriteCriticalPathReport(w io.Writer, procs []TraceProcess) error {
	for _, p := range procs {
		roots := p.Tracer.Roots()
		if len(roots) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s:\n", p.Name); err != nil {
			return err
		}
		for _, root := range roots {
			if _, err := fmt.Fprintf(w, "  %-14s ino=%-4d dur=%s spans=%d\n",
				root.op, root.ino, root.Duration(), root.nspans); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "    %s\n", FormatCriticalPath(CriticalPath(root))); err != nil {
				return err
			}
		}
	}
	return nil
}
