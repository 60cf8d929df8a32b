package telemetry

import (
	"encoding/json"
	"io"
	"sort"
)

// OutcomeStat is one outcome's exact totals.
type OutcomeStat struct {
	Events int64 `json:"events"`
	Pages  int64 `json:"pages"`
}

// OriginStat is one origin's page-provenance ledger: pages inserted
// under the origin, prefetch credit consumed by readers (used), and
// credit destroyed by eviction (wasted). Pending credit is
// Inserted - Used - Wasted (plus, for OriginDemand, pages that never
// carried credit).
type OriginStat struct {
	Inserted int64 `json:"inserted"`
	Used     int64 `json:"used"`
	Wasted   int64 `json:"wasted"`
}

// BackendSnapshot is one stack backend's device-level accounting:
// completed commands, bytes moved in each direction, and the queue-wait
// (submit→admit) and service (admit→done) latency distributions.
type BackendSnapshot struct {
	Commands   int64             `json:"commands"`
	ReadBytes  int64             `json:"read_bytes"`
	WriteBytes int64             `json:"write_bytes"`
	QueueWait  HistogramSnapshot `json:"queue_wait"`
	Service    HistogramSnapshot `json:"service"`
}

// Snapshot is a point-in-time view of a Recorder, suitable for export
// (JSON, Prometheus text) and for Audit.
type Snapshot struct {
	Counters map[string]int64       `json:"counters"`
	Outcomes map[string]OutcomeStat `json:"outcomes"`
	Origins  map[string]OriginStat  `json:"origins"`
	// Arms is the per-predictor-arm real-prefetch ledger (same columns as
	// Origins; partitions the prefetch-origin ledger exactly, ArmNone
	// holding prefetches no ensemble arm drove).
	Arms       map[string]OriginStat        `json:"arms"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Syscalls   map[string]HistogramSnapshot `json:"syscalls"`
	// Backends is per-stack-member device accounting, keyed by backend
	// name (empty when no stack registered its members). The per-backend
	// commands and bytes partition the stack-level device counters
	// exactly — Audit checks that identity.
	Backends map[string]BackendSnapshot `json:"backends,omitempty"`
	// Events is the bounded decision trace, oldest first.
	Events []Event `json:"events,omitempty"`
	// EventsTotal counts all events ever recorded; EventsDropped counts
	// those the ring overwrote.
	EventsTotal   int64 `json:"events_total"`
	EventsDropped int64 `json:"events_dropped"`
	// Trace is the span tracer's accounting, attached by the system that
	// owns both recorder and tracer (nil when tracing is disabled).
	Trace *TraceStats `json:"trace,omitempty"`

	// Typed views, indexed by identifier, for Audit and WritePrometheus
	// (the maps are the JSON schema).
	counters [numCounters]int64
	outcomes [numOutcomes]OutcomeStat
	origins  [numOrigins]OriginStat
	arms     [numArms]OriginStat
	hists    [numHists]HistogramSnapshot
}

// Counter reads one counter from the snapshot.
func (s *Snapshot) Counter(c Counter) int64 { return s.counters[c] }

// Outcome reads one outcome's totals from the snapshot.
func (s *Snapshot) Outcome(o Outcome) OutcomeStat { return s.outcomes[o] }

// Origin reads one origin's ledger from the snapshot.
func (s *Snapshot) Origin(o Origin) OriginStat { return s.origins[o] }

// Arm reads one predictor arm's real-prefetch ledger from the snapshot.
func (s *Snapshot) Arm(a Arm) OriginStat { return s.arms[a] }

// Snapshot captures the recorder's current state. Returns nil on a nil
// recorder (telemetry disabled).
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Counters:   make(map[string]int64, numCounters),
		Outcomes:   make(map[string]OutcomeStat, numOutcomes),
		Origins:    make(map[string]OriginStat, numOrigins),
		Arms:       make(map[string]OriginStat, numArms),
		Histograms: make(map[string]HistogramSnapshot, numHists),
		Syscalls:   make(map[string]HistogramSnapshot),
	}
	for c := Counter(0); c < numCounters; c++ {
		v := r.counters[c].Load()
		s.counters[c] = v
		s.Counters[c.String()] = v
	}
	for o := Outcome(0); o < numOutcomes; o++ {
		st := OutcomeStat{Events: r.outcomes[o].events.Load(), Pages: r.outcomes[o].pages.Load()}
		s.outcomes[o] = st
		s.Outcomes[o.String()] = st
	}
	for o := Origin(0); o < NumOrigins; o++ {
		s.origins[o] = r.origins[o].stat()
		s.Origins[o.String()] = s.origins[o]
	}
	for a := Arm(0); a < NumArms; a++ {
		s.arms[a] = r.arms[a].stat()
		s.Arms[a.String()] = s.arms[a]
	}
	for h := Hist(0); h < numHists; h++ {
		s.hists[h] = r.hists[h].Snapshot()
		s.Histograms[h.String()] = s.hists[h]
	}
	for i := 0; i < MaxSyscallKinds; i++ {
		if r.syscallNames[i] == "" {
			continue
		}
		s.Syscalls[r.syscallNames[i]] = r.syscalls[i].Snapshot()
	}
	for i := 0; i < MaxBackends; i++ {
		if r.backendNames[i] == "" {
			continue
		}
		if s.Backends == nil {
			s.Backends = make(map[string]BackendSnapshot)
		}
		b := &r.backends[i]
		s.Backends[r.backendNames[i]] = BackendSnapshot{
			Commands:   b.commands.Load(),
			ReadBytes:  b.readBytes.Load(),
			WriteBytes: b.writeBytes.Load(),
			QueueWait:  b.queueWait.Snapshot(),
			Service:    b.service.Snapshot(),
		}
	}
	s.Events, s.EventsTotal, s.EventsDropped = r.ring.snapshot()
	return s
}

// PrefetchEffectiveness reports used/(used+wasted) over consumed
// prefetched pages — the Leap accuracy metric. Returns 0 when no
// prefetched page has been consumed yet.
func (s *Snapshot) PrefetchEffectiveness() float64 {
	hit := s.Counter(CtrPrefetchHitPages)
	wasted := s.Counter(CtrPrefetchWastedPages)
	if hit+wasted == 0 {
		return 0
	}
	return float64(hit) / float64(hit+wasted)
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
