package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// TestNilRecorderSafe proves the disabled fast path: every method on a nil
// *Recorder is a no-op, never a panic.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(CtrLibIssuedPages, 5)
	r.Observe(HistDevReadLat, 100)
	r.RegisterSyscall(0, "read")
	r.ObserveSyscall(0, 100)
	r.Event(0, OutcomeIssued, 1, 0, 8)
	if v := r.CounterValue(CtrLibIssuedPages); v != 0 {
		t.Fatalf("nil recorder counter = %d, want 0", v)
	}
	if ev, pg := r.OutcomeTotals(OutcomeIssued); ev != 0 || pg != 0 {
		t.Fatalf("nil recorder outcomes = %d/%d, want 0/0", ev, pg)
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", s)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 4, 100, 0, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 105 {
		t.Fatalf("sum = %d, want 105", s.Sum)
	}
	if s.Min != -5 || s.Max != 100 {
		t.Fatalf("min/max = %d/%d, want -5/100", s.Min, s.Max)
	}
	// p50 is the 4th sample's bucket upper bound (log2 resolution);
	// sorted samples: -5 0 1 2 3 4 100 -> 4th is 2, bucket [2,4).
	if s.P50 < 2 || s.P50 > 4 {
		t.Fatalf("p50 = %d, want in [2,4]", s.P50)
	}
	if s.P99 != 100 {
		t.Fatalf("p99 = %d, want clamped to max 100", s.P99)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 7 {
		t.Fatalf("bucket counts sum to %d, want 7", total)
	}
}

func TestHistogramHugeValue(t *testing.T) {
	var h Histogram
	h.Observe(1 << 62) // top bucket: bounds must not overflow
	s := h.Snapshot()
	if s.Max != 1<<62 || len(s.Buckets) != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := int64(0); i < 6; i++ {
		r.Event(simtime.Time(i), OutcomeIssued, 1, i, i+1)
	}
	s := r.Snapshot()
	if s.EventsTotal != 6 || s.EventsDropped != 2 {
		t.Fatalf("total/dropped = %d/%d, want 6/2", s.EventsTotal, s.EventsDropped)
	}
	if len(s.Events) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(s.Events))
	}
	for i, e := range s.Events {
		want := int64(i) + 2 // oldest surviving event is #2
		if e.Lo != want {
			t.Fatalf("events[%d].Lo = %d, want %d (oldest-first order)", i, e.Lo, want)
		}
		if e.OutcomeName != "issued" {
			t.Fatalf("events[%d].OutcomeName = %q", i, e.OutcomeName)
		}
	}
	// Totals stay exact even though the ring wrapped.
	if ev, pg := r.OutcomeTotals(OutcomeIssued); ev != 6 || pg != 6 {
		t.Fatalf("outcome totals = %d/%d, want 6/6", ev, pg)
	}
}

// consistentRecorder builds a recorder whose counters reconcile, and the
// AuditInput it reconciles against.
func consistentRecorder() (*Recorder, AuditInput) {
	r := NewRecorder(0)
	bs := int64(4096)
	r.Add(CtrLibIssuedPages, 100)
	r.Add(CtrKernelRequestedPages, 100)
	r.Add(CtrKernelAdmittedPages, 80)
	r.Add(CtrKernelRejectedPages, 20)
	r.Add(CtrKernelPrefetchedPages, 60)
	r.Add(CtrVFSPrefetchInsertedPages, 60)
	r.Add(CtrVFSPrefetchDevicePages, 60)
	r.Add(CtrVFSDemandFetchPages, 40)
	r.Add(CtrCacheInsertedPages, 100)
	r.Add(CtrCachePrefetchInsertedPages, 60)
	r.Add(CtrCacheRemovedPages, 30)
	r.Add(CtrPrefetchHitPages, 50)
	r.Add(CtrPrefetchWastedPages, 10)
	r.Add(CtrDeviceReadBytes, (60+40)*bs)
	// Origin partition: 60 prefetch-origin + 40 demand insertions, the
	// hits/waste split across two prefetch origins, and one
	// prefetch-to-use sample per hit.
	r.OriginInserted(OriginDemand, 40)
	r.OriginInserted(OriginReadahead, 35)
	r.OriginInserted(OriginCrossOS, 25)
	r.OriginUsed(OriginReadahead, 30)
	r.OriginUsed(OriginCrossOS, 20)
	r.OriginWasted(OriginReadahead, 5)
	r.OriginWasted(OriginCrossOS, 5)
	// Arm partition: the same 60 prefetch-origin insertions and their
	// hit/waste splits, attributed per driving arm (kernel readahead has
	// no arm; the crossos share here came from the counter arm).
	r.ArmInserted(ArmNone, 35)
	r.ArmInserted(ArmCounter, 25)
	r.ArmUsed(ArmNone, 30)
	r.ArmUsed(ArmCounter, 20)
	r.ArmWasted(ArmNone, 5)
	r.ArmWasted(ArmCounter, 5)
	for i := 0; i < 50; i++ {
		r.Observe(HistPrefetchToUse, int64(i))
	}
	r.Event(0, OutcomeIssued, 1, 0, 80)
	r.Event(1, OutcomeSavedByBitmap, 1, 80, 96)
	r.Event(2, OutcomeSavedByBitmap, 1, 96, 100)
	r.Event(3, OutcomeDroppedQueueFull, 2, 0, 32)
	r.Event(4, OutcomeEvictedBeforeUse, 1, 0, 10)
	// A drop-behind unit that freed 8 of its 64 pages, of the library's 20.
	r.Add(CtrLibDroppedBehindPages, 8)
	r.EventPages(5, OutcomeDroppedBehind, 1, 0, 64, 8)
	return r, AuditInput{
		BlockSize:          bs,
		CacheUsed:          70,
		LibSavedPrefetches: 2,
		LibDroppedPrefetch: 1,
		LibEvictedPages:    20,
		HasLibStats:        true,
		StrictDevice:       true,
	}
}

func TestAuditPasses(t *testing.T) {
	r, in := consistentRecorder()
	if err := Audit(r.Snapshot(), in); err != nil {
		t.Fatalf("audit of consistent recorder failed: %v", err)
	}
}

func TestAuditDetectsViolations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(r *Recorder, in *AuditInput)
		wantSub string
	}{
		{"nil snapshot", nil, "nil snapshot"},
		{"split", func(r *Recorder, in *AuditInput) {
			r.Add(CtrKernelAdmittedPages, 1)
		}, "admitted"},
		{"residency", func(r *Recorder, in *AuditInput) {
			in.CacheUsed = 71
		}, "resident"},
		{"effectiveness", func(r *Recorder, in *AuditInput) {
			r.Add(CtrPrefetchHitPages, 100)
		}, "prefetch hits"},
		{"wasted trace", func(r *Recorder, in *AuditInput) {
			r.Add(CtrPrefetchWastedPages, 3)
			r.Add(CtrPrefetchHitPages, -3) // keep hit+wasted consistent
		}, "evicted-before-use"},
		{"lib stats", func(r *Recorder, in *AuditInput) {
			in.LibSavedPrefetches = 5
		}, "saved-by-bitmap"},
		{"dropped-behind trace", func(r *Recorder, in *AuditInput) {
			r.Add(CtrLibDroppedBehindPages, 1)
		}, "dropped-behind trace pages"},
		{"dropped-behind over evicted", func(r *Recorder, in *AuditInput) {
			in.LibEvictedPages = 7
		}, "lib evicted pages"},
		{"strict device", func(r *Recorder, in *AuditInput) {
			r.Add(CtrDeviceReadBytes, 4096)
		}, "device read"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mutate == nil {
				if err := Audit(nil, AuditInput{}); err == nil ||
					!strings.Contains(err.Error(), tc.wantSub) {
					t.Fatalf("audit(nil) = %v, want %q", err, tc.wantSub)
				}
				return
			}
			r, in := consistentRecorder()
			tc.mutate(r, &in)
			err := Audit(r.Snapshot(), in)
			if err == nil {
				t.Fatal("audit passed on inconsistent recorder")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("audit error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestSnapshotExport(t *testing.T) {
	r, _ := consistentRecorder()
	r.Observe(HistDevReadLat, 5000)
	r.RegisterSyscall(0, "read")
	r.ObserveSyscall(0, 900)
	s := r.Snapshot()

	if got := s.Counter(CtrLibIssuedPages); got != s.Counters["lib_issued_pages"] || got != 100 {
		t.Fatalf("typed/map counter mismatch: %d vs %d", got, s.Counters["lib_issued_pages"])
	}
	if st := s.Outcome(OutcomeSavedByBitmap); st.Events != 2 || st != s.Outcomes["saved-by-bitmap"] {
		t.Fatalf("typed/map outcome mismatch: %+v", st)
	}
	if eff := s.PrefetchEffectiveness(); eff < 0.83 || eff > 0.84 {
		t.Fatalf("effectiveness = %v, want 50/60", eff)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var round map[string]any
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	for _, key := range []string{"counters", "outcomes", "histograms", "syscalls", "events"} {
		if _, ok := round[key]; !ok {
			t.Fatalf("JSON output missing %q", key)
		}
	}

}
