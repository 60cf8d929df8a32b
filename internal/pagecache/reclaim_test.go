package pagecache

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// wastedEvents filters a snapshot's decision trace down to the
// evicted-before-use events.
func wastedEvents(s *telemetry.Snapshot) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range s.Events {
		if e.OutcomeName == "evicted-before-use" {
			out = append(out, e)
		}
	}
	return out
}

// TestWastedRunsNonContiguous is the regression test for the wasted-run
// accounting: a victim batch whose unused prefetched pages are NOT one
// contiguous index range must produce one exact event per contiguous
// run. The old code emitted a single [minIdx, minIdx+wasted) span,
// which here would cover the demand pages in the middle.
func TestWastedRunsNonContiguous(t *testing.T) {
	c := newTestCache(1000)
	rec := telemetry.NewRecorder(1024)
	c.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	fc := c.File(7)

	// Prefetch credit on [0,3) and [5,8); demand (no credit) on [3,5).
	fc.InsertRange(tl, 0, 3, InsertOptions{MarkerAt: -1, Origin: telemetry.OriginReadahead})
	fc.InsertRange(tl, 3, 5, InsertOptions{MarkerAt: -1})
	fc.InsertRange(tl, 5, 8, InsertOptions{MarkerAt: -1, Origin: telemetry.OriginReadahead})

	// Evict everything unread in one batch.
	fc.RemoveRange(tl, 0, 8)

	s := rec.Snapshot()
	ev := wastedEvents(s)
	if len(ev) != 2 {
		t.Fatalf("wasted events = %d, want 2 contiguous runs: %+v", len(ev), ev)
	}
	for _, e := range ev {
		if e.Ino != 7 {
			t.Fatalf("event ino = %d, want 7", e.Ino)
		}
	}
	if ev[0].Lo != 0 || ev[0].Hi != 3 || ev[1].Lo != 5 || ev[1].Hi != 8 {
		t.Fatalf("runs = [%d,%d) [%d,%d), want [0,3) [5,8)", ev[0].Lo, ev[0].Hi, ev[1].Lo, ev[1].Hi)
	}
	var sum int64
	for _, e := range ev {
		sum += e.Pages
	}
	if want := s.Counter(telemetry.CtrPrefetchWastedPages); sum != want || want != 6 {
		t.Fatalf("event pages sum = %d, counter = %d, want both 6", sum, want)
	}
}

// TestWastedRunsMultiFile evicts a batch spanning several files under
// real capacity pressure: every event must be attributed to the file
// that actually held the credit (the old code booked the whole batch on
// the first victim's inode), and the per-event page totals must
// partition the wasted counter exactly.
func TestWastedRunsMultiFile(t *testing.T) {
	c := newTestCache(32)
	rec := telemetry.NewRecorder(1024)
	c.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)

	// Two files of unread prefetched pages...
	c.File(1).InsertRange(tl, 0, 10, InsertOptions{MarkerAt: -1, Origin: telemetry.OriginReadahead})
	c.File(2).InsertRange(tl, 0, 10, InsertOptions{MarkerAt: -1, Origin: telemetry.OriginCrossOS})
	// ...then demand pressure from a third file forces reclaim.
	c.File(3).InsertRange(tl, 0, 20, InsertOptions{MarkerAt: -1})

	s := rec.Snapshot()
	ev := wastedEvents(s)
	if len(ev) == 0 {
		t.Fatal("capacity pressure produced no wasted-prefetch events")
	}
	inos := map[int64]bool{}
	var sum int64
	for _, e := range ev {
		switch e.Ino {
		case 1, 2: // only these files held prefetch credit
		default:
			t.Fatalf("wasted event on ino %d, which had no prefetched pages: %+v", e.Ino, e)
		}
		if e.Lo < 0 || e.Hi > 10 || e.Lo >= e.Hi {
			t.Fatalf("event range [%d,%d) outside the prefetched span [0,10): %+v", e.Lo, e.Hi, e)
		}
		inos[e.Ino] = true
		sum += e.Pages
	}
	if want := s.Counter(telemetry.CtrPrefetchWastedPages); sum != want {
		t.Fatalf("event pages sum = %d != wasted counter %d (runs must partition the counter)", sum, want)
	}
	if len(inos) < 2 {
		t.Fatalf("wasted events cover inos %v, want both 1 and 2 (per-file attribution)", inos)
	}
	// Per-ino events must be non-overlapping and sorted within each batch;
	// simpler global invariant: no two events on the same ino overlap.
	for i, a := range ev {
		for _, b := range ev[i+1:] {
			if a.Ino == b.Ino && a.Lo < b.Hi && b.Lo < a.Hi {
				t.Fatalf("overlapping wasted runs on ino %d: [%d,%d) and [%d,%d)",
					a.Ino, a.Lo, a.Hi, b.Lo, b.Hi)
			}
		}
	}
}

// TestReclaimPass drives the one reclaim pass from each of its callers.
// ReclaimPage is the only non-zero cost, so the clocks show the pass's
// charge and nothing else; it is odd, so half the pass's total (what
// kswapd pays) differs from victims × half the per-page cost.
func TestReclaimPass(t *testing.T) {
	const perPage = 701 * simtime.Nanosecond
	type insert struct {
		ino, lo, hi int64
		tenant      int
	}
	for _, row := range []struct {
		name       string
		soft, hard int64 // tenant 1's budgets
		script     []insert
		victims    int64
		background bool
		counter    func(Stats) int64
		resident   [3]int64 // per tenant, afterwards
		gone, kept [2]int64 // ranges of inode 2, empty when not asserted
	}{
		{name: "direct", script: []insert{{2, 0, 150, 0}}, victims: 150 - 87,
			counter:  func(s Stats) int64 { return s.DirectReclaim },
			resident: [3]int64{87}, gone: [2]int64{0, 63}, kept: [2]int64{63, 150}},
		// 96 pages cross the high watermark (93) but not capacity.
		{name: "kswapd", script: []insert{{2, 0, 96, 0}}, victims: 96 - 87, background: true,
			counter:  func(s Stats) int64 { return s.KswapdRuns },
			resident: [3]int64{87}, gone: [2]int64{0, 9}, kept: [2]int64{9, 96}},
		// Tenant 2's pages are the oldest in the cache; a hard-budget pass
		// for tenant 1 must walk past them.
		{name: "tenant-hard", hard: 40, script: []insert{{2, 0, 30, 2}, {1, 0, 60, 1}}, victims: 60 - 40,
			counter:  func(s Stats) int64 { return s.TenantReclaims },
			resident: [3]int64{0, 40, 30}, kept: [2]int64{0, 30}},
		// Tenant 1 sits over its soft budget among older and younger pages
		// of tenant 2. The pass takes all of tenant 1 first; what remains
		// is within budget, the bias runs out of rotations, and the pass
		// finishes on tenant 2 (which of its pages depends on how far the
		// rotations carried the lists, so the row does not say).
		{name: "soft-bias", soft: 10, script: []insert{{2, 0, 40, 2}, {1, 0, 15, 1}, {2, 40, 75, 2}, {2, 75, 95, 2}},
			victims:  110 - 87,
			counter:  func(s Stats) int64 { return s.DirectReclaim },
			resident: [3]int64{0, 0, 87}},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := New(Config{BlockSize: 4096, CapacityPages: 100, Costs: simtime.Costs{ReclaimPage: perPage}}, nil)
			c.SetTenantBudget(1, row.soft, row.hard)
			tl := simtime.NewTimeline(0)
			for _, in := range row.script {
				c.File(in.ino).InsertRange(tl, in.lo, in.hi, InsertOptions{MarkerAt: -1, Tenant: in.tenant})
			}
			paid, idle := tl.Now(), c.kswapd.EarliestFree()
			want := simtime.Time(simtime.Duration(row.victims) * perPage)
			if row.background {
				paid, idle, want = idle, paid, want/2
			}
			if paid != want || idle != 0 {
				t.Errorf("the pass charged %d (and %d to the other timeline), want %d × %d = %d (and 0)",
					paid, idle, row.victims, perPage, want)
			}
			st := c.Stats()
			if n := row.counter(st); n != 1 || st.DirectReclaim+st.KswapdRuns+st.TenantReclaims != 1 || st.Evictions != row.victims {
				t.Errorf("want one pass, booked once, evicting %d: %+v", row.victims, st)
			}
			used := int64(0)
			for _, ts := range c.TenantStats() {
				if ts.Resident != row.resident[ts.ID] {
					t.Errorf("tenant %d holds %d pages, want %d", ts.ID, ts.Resident, row.resident[ts.ID])
				}
				used += ts.Resident
			}
			if st.Used != used || used > c.lowWater() {
				t.Errorf("cache holds %d pages, tenants %d, low watermark %d", st.Used, used, c.lowWater())
			}
			fc := c.File(2)
			if lo, hi := fc.NonResidentSpan(row.gone[0], row.gone[1]); hi-lo != row.gone[1]-row.gone[0] {
				t.Errorf("inode 2 still holds pages of [%d,%d), the oldest", row.gone[0], row.gone[1])
			}
			if runs := fc.FastMissingRuns(nil, row.kept[0], row.kept[1]); len(runs) != 0 {
				t.Errorf("inode 2 lost %v of [%d,%d)", runs, row.kept[0], row.kept[1])
			}
		})
	}
}
