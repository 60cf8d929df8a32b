package telemetry

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"repro/internal/simtime"
)

// TestScorecardWindowRotation drives one inode across more epochs than
// the ring holds and checks that (a) only the trailing windows survive,
// oldest first, and (b) lifetime totals keep counting across resets.
func TestScorecardWindowRotation(t *testing.T) {
	const width, epochs = scoreWindowWidth, scoreWindows + 6
	s := NewScorecard()
	for epoch := int64(0); epoch < epochs; epoch++ {
		at := simtime.Time(epoch * int64(width))
		s.Issued(at, 1, 0, OriginReadahead, 8)
		s.Used(at, 1, 0, OriginReadahead, 1000)
		s.Read(at, 1, 0, 4, 1, 0)
	}
	snap := s.Snapshot()
	if len(snap.Files) != 1 {
		t.Fatalf("files cards = %d, want 1", len(snap.Files))
	}
	card := snap.Files[0]
	if card.Key != 1 {
		t.Fatalf("card key = %d, want 1", card.Key)
	}
	if got := card.Totals.Issued["readahead"]; got != 8*epochs {
		t.Fatalf("lifetime issued = %d, want %d (totals must survive rotation)", got, 8*epochs)
	}
	if len(card.Windows) != scoreWindows {
		t.Fatalf("surviving windows = %d, want ring depth %d", len(card.Windows), scoreWindows)
	}
	for i, w := range card.Windows {
		wantStart := simtime.Time((epochs - scoreWindows + int64(i)) * int64(width))
		if w.Start != wantStart {
			t.Fatalf("window %d start = %v, want %v (oldest-first trailing epochs)",
				i, w.Start, wantStart)
		}
		if w.End != wantStart.Add(width) {
			t.Fatalf("window %d end = %v, want %v", i, w.End, wantStart.Add(width))
		}
		if got := w.Issued["readahead"]; got != 8 {
			t.Fatalf("window %d issued = %d, want 8", i, got)
		}
	}
}

// TestScorecardScores checks the derived ratios on a hand-built window.
func TestScorecardScores(t *testing.T) {
	s := NewScorecard()
	at := simtime.Time(0)
	s.Issued(at, 1, 0, OriginReadahead, 10)
	s.Issued(at, 1, 0, OriginDemand, 5) // demand: partition complement, not accuracy input
	for i := 0; i < 6; i++ {
		s.Used(at, 1, 0, OriginReadahead, int64(1000<<i))
	}
	s.Wasted(at, 1, 0, OriginReadahead, 3)
	s.Evicted(at, 1, 0, 6)
	s.Read(at, 1, 0, 4, 2, 1)
	s.Read(at, 1, 0, 4, 0, 0)

	tot := s.Snapshot().Files[0].Totals
	if tot.Accuracy != 0.6 {
		t.Fatalf("accuracy = %v, want 0.6 (6 used / 10 prefetch-issued; demand excluded)", tot.Accuracy)
	}
	if tot.Coverage != 0.5 {
		t.Fatalf("coverage = %v, want 0.5 (1 hit read / 2 reads)", tot.Coverage)
	}
	if tot.Pollution != 0.5 {
		t.Fatalf("pollution = %v, want 0.5 (3 wasted / 6 evicted)", tot.Pollution)
	}
	if tot.LatePages != 1 {
		t.Fatalf("late pages = %d, want 1", tot.LatePages)
	}
	if tot.TimelinessCount != 6 || tot.TimelinessP50 <= 0 || tot.TimelinessP99 < tot.TimelinessP50 {
		t.Fatalf("timeliness count/p50/p99 = %d/%d/%d: want count 6 and p99 >= p50 > 0",
			tot.TimelinessCount, tot.TimelinessP50, tot.TimelinessP99)
	}
}

// TestScorecardOverflow floods more inodes than the table's card bound
// holds: excess traffic must land on its one overflow card (key -1), and
// OriginTotals must still reconcile exactly against what was booked.
func TestScorecardOverflow(t *testing.T) {
	s := NewScorecard()
	at := simtime.Time(0)
	const inodes = 4 * scoreMaxCards
	for ino := int64(0); ino < inodes; ino++ {
		s.Issued(at, ino, 0, OriginCrossOS, 2)
	}
	issued, _, _ := s.OriginTotals(OriginCrossOS)
	if issued != 2*inodes {
		t.Fatalf("origin totals issued = %d, want %d (overflow must be included)", issued, 2*inodes)
	}
	snap := s.Snapshot()
	overflow := 0
	var overflowIssued int64
	for _, c := range snap.Files {
		if c.Key == OverflowKey {
			overflow++
			overflowIssued += c.Totals.Issued["crossos"]
		}
	}
	if overflow != 1 || overflowIssued != 2*(inodes-scoreMaxCards) {
		t.Fatalf("got %d overflow cards with %d pages, want 1 with %d", overflow, overflowIssued, 2*(inodes-scoreMaxCards))
	}
	if max := scoreMaxCards + 1; len(snap.Files) > max {
		t.Fatalf("cards = %d, want <= %d (%d cards + overflow)", len(snap.Files), max, scoreMaxCards)
	}
}

// TestScorecardDiff checks the snapshot differ: interval counts are
// cur-prev and the ratio scores are recomputed over the interval alone.
func TestScorecardDiff(t *testing.T) {
	s := NewScorecard()
	at := simtime.Time(0)
	s.Issued(at, 1, 0, OriginReadahead, 10)
	for i := 0; i < 2; i++ {
		s.Used(at, 1, 0, OriginReadahead, 100)
	}
	prev := s.Snapshot()

	// Second interval: 10 more issued, 8 more used -> interval accuracy 0.8.
	s.Issued(at, 1, 0, OriginReadahead, 10)
	for i := 0; i < 8; i++ {
		s.Used(at, 1, 0, OriginReadahead, 100)
	}
	cur := s.Snapshot()

	delta := cur.Diff(prev)
	if len(delta.Files) != 1 {
		t.Fatalf("delta files = %d, want 1", len(delta.Files))
	}
	d := delta.Files[0].Totals
	if got := d.Issued["readahead"]; got != 10 {
		t.Fatalf("delta issued = %d, want 10", got)
	}
	if got := d.Used["readahead"]; got != 8 {
		t.Fatalf("delta used = %d, want 8", got)
	}
	if d.Accuracy != 0.8 {
		t.Fatalf("delta accuracy = %v, want 0.8 (recomputed over the interval)", d.Accuracy)
	}
	if d.TimelinessCount != 8 {
		t.Fatalf("delta timeliness count = %d, want 8", d.TimelinessCount)
	}

	// Nil prev: the delta is cur's totals verbatim.
	full := cur.Diff(nil)
	if got := full.Files[0].Totals.Issued["readahead"]; got != 20 {
		t.Fatalf("nil-prev delta issued = %d, want 20", got)
	}
}

// TestScorecardNilSafe: every method must be a no-op on a nil receiver —
// the disabled-telemetry contract is a single nil check.
func TestScorecardNilSafe(t *testing.T) {
	var s *Scorecard
	at := simtime.Time(0)
	s.Issued(at, 1, 0, OriginReadahead, 1)
	s.Used(at, 1, 0, OriginReadahead, 1)
	s.Wasted(at, 1, 0, OriginReadahead, 1)
	s.Evicted(at, 1, 0, 1)
	s.Read(at, 1, 0, 1, 1, 0)
	if i, u, w := s.OriginTotals(OriginReadahead); i != 0 || u != 0 || w != 0 {
		t.Fatalf("nil totals = %d/%d/%d, want zeros", i, u, w)
	}
	if s.Snapshot() != nil {
		t.Fatal("nil scorecard snapshot must be nil")
	}
}

// TestScorecardSnapshotDeterministic: identical books must serialize to
// byte-identical JSON (the rerun-comparison contract).
func TestScorecardSnapshotDeterministic(t *testing.T) {
	build := func() []byte {
		s := NewScorecard()
		for ino := int64(0); ino < 20; ino++ {
			at := simtime.Time(ino * int64(simtime.Millisecond))
			s.Issued(at, ino, int(ino%3), OriginReadahead, 4)
			s.Used(at, ino, int(ino%3), OriginReadahead, 700)
			s.Read(at, ino, int(ino%3), 4, 1, 0)
		}
		b, err := json.Marshal(s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Fatal("snapshot JSON differs across identical reruns")
	}
}

// TestScorecardWarmPathAllocs guards the hot-path contract: once a
// card's window slot exists, booking into it allocates nothing.
func TestScorecardWarmPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	s := NewScorecard()
	at := simtime.Time(0)
	// Warm the (ino, tenant) card pair and the epoch slot.
	s.Issued(at, 7, 1, OriginReadahead, 4)
	s.Used(at, 7, 1, OriginReadahead, 100)
	s.Read(at, 7, 1, 4, 2, 0)
	n := testing.AllocsPerRun(200, func() {
		s.Issued(at, 7, 1, OriginReadahead, 4)
		s.Used(at, 7, 1, OriginReadahead, 100)
		s.Wasted(at, 7, 1, OriginReadahead, 1)
		s.Evicted(at, 7, 1, 1)
		s.Read(at, 7, 1, 4, 2, 0)
	})
	if n != 0 {
		t.Fatalf("warm path allocs/op = %v, want 0", n)
	}
}

// TestScorecardConcurrentReconcile hammers one shared inode from 8
// goroutines at several GOMAXPROCS settings, mirroring every booking
// onto a Recorder, and requires the scorecard's per-origin partition to
// reconcile exactly against the recorder's — the same identity
// System.AuditTelemetry enforces.
func TestScorecardConcurrentReconcile(t *testing.T) {
	for _, procs := range []int{2, 4, 16} {
		prev := runtime.GOMAXPROCS(procs)
		t.Run("", func(t *testing.T) {
			s := NewScorecard()
			r := NewRecorder(0)
			const workers, iters = 8, 400
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					origin := Origin(g % int(NumOrigins))
					for i := 0; i < iters; i++ {
						at := simtime.Time(int64(i) * int64(simtime.Microsecond))
						s.Issued(at, 42, g, origin, 3)
						r.OriginInserted(origin, 3)
						if origin.IsPrefetch() {
							s.Used(at, 42, g, origin, int64(i))
							r.OriginUsed(origin, 1)
							s.Wasted(at, 42, g, origin, 2)
							r.OriginWasted(origin, 2)
						}
						s.Read(at, 42, g, 4, 1, 0)
					}
				}(g)
			}
			wg.Wait()
			var sumIssued int64
			for o := Origin(0); o < NumOrigins; o++ {
				si, su, sw := s.OriginTotals(o)
				ri, ru, rw := r.OriginTotals(o)
				if si != ri || su != ru || sw != rw {
					t.Fatalf("GOMAXPROCS=%d origin %s: scorecard %d/%d/%d != recorder %d/%d/%d",
						procs, o, si, su, sw, ri, ru, rw)
				}
				sumIssued += si
			}
			if want := int64(workers * iters * 3); sumIssued != want {
				t.Fatalf("GOMAXPROCS=%d total issued = %d, want %d", procs, sumIssued, want)
			}
			// The shared-inode card's totals must also carry the full sum.
			snap := s.Snapshot()
			if len(snap.Files) != 1 || snap.Files[0].Key != 42 {
				t.Fatalf("expected single shared-inode card, got %d", len(snap.Files))
			}
			if got := snap.Files[0].Totals.Reads; got != workers*iters {
				t.Fatalf("shared card reads = %d, want %d", got, workers*iters)
			}
		})
		runtime.GOMAXPROCS(prev)
	}
}
