package pagecache

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// coldDropScene is one file holding, page by page: clean pages read once
// [0,64), clean pages read twice and so active [64,128), dirty pages read
// once [128,160), dirty active pages [160,176), prefetched pages still in
// flight and never read [176,208), and a hole up to 256; tenant 1 owns the
// pages under 128, tenant 2 the rest. hot says whether the second reads
// happen: without them nothing in the scene is active.
type coldDropScene struct {
	c       *Cache
	fc      *FileCache
	tl      *simtime.Timeline
	rec     *telemetry.Recorder
	score   *telemetry.Scorecard
	flushes []string
}

func newColdDropScene(hot bool) *coldDropScene {
	s := &coldDropScene{tl: simtime.NewTimeline(0), rec: telemetry.NewRecorder(1 << 10),
		score: telemetry.NewScorecard()}
	s.c = New(Config{BlockSize: 4096, CapacityPages: 4096, Costs: simtime.DefaultCosts()},
		func(at simtime.Time, ino, lo, hi int64) (simtime.Time, error) {
			s.flushes = append(s.flushes, fmt.Sprintf("[%d,%d) of %d at %d", lo, hi, ino, at))
			return at.Add(simtime.Microsecond), nil
		})
	s.c.SetTelemetry(s.rec)
	s.c.SetScorecard(s.score)
	s.fc = s.c.File(7)
	s.fc.InsertRange(s.tl, 0, 128, InsertOptions{MarkerAt: -1, Tenant: 1})
	s.fc.InsertRange(s.tl, 128, 176, InsertOptions{MarkerAt: -1, Tenant: 2, Dirty: true})
	s.fc.InsertRange(s.tl, 176, 208, InsertOptions{MarkerAt: 192, Tenant: 2,
		Origin: telemetry.OriginCrossOS, ReadyAt: s.tl.Now().Add(simtime.Second)})
	// What the VFS books beside those inserts; the audit ties them to the
	// cache's own counts.
	s.rec.Add(telemetry.CtrVFSDemandFetchPages, 128)
	s.rec.Add(telemetry.CtrVFSPrefetchInsertedPages, 32)
	s.rec.Add(telemetry.CtrVFSPrefetchDevicePages, 32)
	s.fc.LookupRange(s.tl, 0, 176)
	if hot {
		s.fc.LookupRange(s.tl, 64, 128)
		s.fc.LookupRange(s.tl, 160, 176)
	}
	return s
}

// state is everything of the scene a drop can move, rendered comparable.
func (s *coldDropScene) state(t *testing.T) string {
	t.Helper()
	out := fmt.Sprintf("now %d stats %+v tenants %+v dirty %d missing %v tree %+v flushes %v\n", s.tl.Now(), s.c.Stats(),
		s.c.TenantStats(), s.c.Dirty(), s.fc.FastMissingRuns(nil, 0, 256), s.fc.TreeLockStats(), s.flushes)
	for _, snap := range []any{s.rec.Snapshot(), s.score.Snapshot()} {
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		out += string(b) + "\n"
	}
	return out
}

// TestColdDropSparesActive: RemoveColdRange over a range mixing inactive,
// active, dirty and in-flight pages takes exactly the pages not on the
// active list, and every book agrees about it afterwards.
func TestColdDropSparesActive(t *testing.T) {
	s := newColdDropScene(true)
	c, fc := s.c, s.fc
	if got := fc.RemoveColdRange(s.tl, 0, 256); got != 64+32+32 {
		t.Fatalf("cold drop removed %d pages, want %d", got, 64+32+32)
	}
	// Index and bitmap: the active pages, and nothing else.
	want := []bitmap.Run{{Lo: 0, Hi: 64}, {Lo: 128, Hi: 160}, {Lo: 176, Hi: 256}}
	if got := fc.FastMissingRuns(nil, 0, 256); !reflect.DeepEqual(got, want) {
		t.Errorf("bitmap shows %v missing, want %v", got, want)
	}
	var indexed []int64
	fc.WalkResident(nil, 0, 256, func(idx int64) { indexed = append(indexed, idx) })
	if len(indexed) != 64+16 || indexed[0] != 64 || indexed[63] != 127 || indexed[64] != 160 || indexed[79] != 175 {
		t.Errorf("index holds %v, want [64,128) and [160,176)", indexed)
	}
	// Both lists: every survivor still active, nothing left inactive.
	active, inactive := listLen(&c.frames, &c.active), listLen(&c.frames, &c.inactive)
	if active != 80 || inactive != 0 || c.nInactive != 0 {
		t.Errorf("lists hold %d active and %d inactive pages (nInactive %d), want 80, 0 (0)", active, inactive, c.nInactive)
	}
	// The spared pages kept their state: a dirty one is still dirty, and a
	// lookup finds them without a wait.
	if c.Used() != 80 || c.Dirty() != 16 {
		t.Errorf("used %d dirty %d, want 80 and 16", c.Used(), c.Dirty())
	}
	if res := fc.LookupRange(nil, 64, 128); res.PresentCount != 64 {
		t.Errorf("%d of the 64 active clean pages answer a lookup", res.PresentCount)
	}
	// Dirty victims went out through the flush hook as RemoveRange sends
	// them, one contiguous run; the dirty pages that stayed were not written.
	if len(s.flushes) != 1 || !strings.HasPrefix(s.flushes[0], "[128,160) ") || c.Stats().Writebacks != 32 {
		t.Errorf("flushes %v, writebacks %d; want one run [128,160), 32", s.flushes, c.Stats().Writebacks)
	}
	// The in-flight prefetch was dropped unread: wasted, all 32 pages of it.
	if got := s.rec.CounterValue(telemetry.CtrPrefetchWastedPages); got != 32 {
		t.Errorf("%d prefetched pages booked wasted, want 32", got)
	}
	// Tenant ledgers and inserted − removed = resident.
	for _, ts := range c.TenantStats() {
		if want := map[int]int64{1: 64, 2: 16}[ts.ID]; ts.Resident != want {
			t.Errorf("tenant %d holds %d pages, want %d", ts.ID, ts.Resident, want)
		}
	}
	auditLedgers(t, c, s.rec)
	// A second drop finds nothing to take and books nothing.
	before := s.state(t)
	if got := fc.RemoveColdRange(s.tl, 0, 256); got != 0 {
		t.Errorf("second cold drop removed %d pages", got)
	}
	if after := s.state(t); after != before {
		t.Errorf("a cold drop that removed nothing moved a book:\n%s\nwas\n%s", after, before)
	}
}

// TestColdDropOfColdRangeIsRemoveRange: where nothing is active, the cold
// drop is RemoveRange to the byte — clocks, ledgers, flushes, telemetry
// and scorecard.
func TestColdDropOfColdRangeIsRemoveRange(t *testing.T) {
	plain, cold := newColdDropScene(false), newColdDropScene(false)
	for _, r := range [][2]int64{{32, 96}, {100, 101}, {120, 200}, {0, 256}} {
		a, b := plain.fc.RemoveRange(plain.tl, r[0], r[1]), cold.fc.RemoveColdRange(cold.tl, r[0], r[1])
		if a != b {
			t.Errorf("[%d,%d): RemoveRange took %d pages, RemoveColdRange %d", r[0], r[1], a, b)
		}
		if p, c := plain.state(t), cold.state(t); p != c {
			t.Fatalf("after [%d,%d) the two differ:\nRemoveRange:\n%s\nRemoveColdRange:\n%s", r[0], r[1], p, c)
		}
	}
	if cold.c.Used() != 0 || len(cold.flushes) == 0 {
		t.Errorf("setup: %d pages left, %d flushes; want 0 and some", cold.c.Used(), len(cold.flushes))
	}
}
