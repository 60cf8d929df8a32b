package simtime

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// refRing is the reference model of a ledger's live set: the FIFO ring of
// the last ringCap booked spans, searched by rescanning it from slot 0
// after every conflict. The indexed ring must place every booking where
// this does.
type refRing struct {
	spans [ringCap]span
	n     int
}

func (r *refRing) push(sp span) {
	r.spans[r.n%ringCap] = sp
	r.n++
}

func (r *refRing) live() []span { return r.spans[:min(r.n, ringCap)] }

// conflictEnd returns the end of a live span overlapping [s, s+hold), or 0.
func (r *refRing) conflictEnd(s Time, hold Duration) Time {
	e := s.Add(hold)
	for _, sp := range r.live() {
		if sp.s < e && s < sp.e {
			return sp.e
		}
	}
	return 0
}

// maxEnd reports the latest live end.
func (r *refRing) maxEnd() Time {
	var m Time
	for _, sp := range r.live() {
		m = max(m, sp.e)
	}
	return m
}

// refReserve books [start, start+hold) on into, moving start to the end of
// a conflicting span of a or (when non-nil) b until none conflicts.
func refReserve(into *refRing, at Time, hold Duration, a, b *refRing) Time {
	if hold <= 0 {
		return at
	}
	start := at
	for {
		ce := a.conflictEnd(start, hold)
		if b != nil {
			ce = max(ce, b.conflictEnd(start, hold))
		}
		if ce == 0 {
			break
		}
		start = ce
	}
	into.push(span{start, start.Add(hold)})
	return start
}

// ledgerOp is one generated reservation.
type ledgerOp struct {
	at    Time
	hold  Duration
	write bool
}

// ledgerShape is what the generator varies between runs.
type ledgerShape struct {
	step   int // mean clock advance per op is step/2
	skew   int // how far behind the clock a late arrival may be
	longIn int // one hold in longIn is long (0: none)
}

// ledgerOps generates n reservations: a clock that advances by a random
// step, arrivals at the clock, behind it (up to skew, and now and then ten
// times that, but never before 0), or a little ahead; holds that are zero one time in ten and
// long one time in longIn; and repeats of the previous reservation as a
// read, which books a reader span identical to the last one.
func ledgerOps(seed uint64, sh ledgerShape, n int) []ledgerOp {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	ops := make([]ledgerOp, 0, n)
	var clock Time
	for len(ops) < n {
		if len(ops) > 0 && rng.IntN(10) == 0 {
			op := ops[len(ops)-1]
			op.write = false
			ops = append(ops, op)
			continue
		}
		clock += Time(rng.IntN(max(sh.step, 1)))
		var op ledgerOp
		switch r := rng.IntN(100); {
		case r < 50:
			op.at = clock
		case r < 80:
			op.at = clock - Time(rng.IntN(max(sh.skew, 1)))
		case r < 90:
			op.at = clock - Time(rng.IntN(10*max(sh.skew, 1)))
		default:
			op.at = clock + Time(rng.IntN(200))
		}
		op.at = max(op.at, 0) // virtual time starts at 0
		switch {
		case rng.IntN(10) == 0:
			op.hold = 0
		case sh.longIn > 0 && rng.IntN(sh.longIn) == 0:
			op.hold = Duration(1000 + rng.IntN(20000))
		default:
			op.hold = Duration(1 + rng.IntN(100))
		}
		op.write = rng.IntN(3) == 0
		ops = append(ops, op)
	}
	return ops
}

// checkAgainstScan drives a Ledger and an RWLedger through ops in lockstep
// with the reference rings and fails at the first booking they place
// differently.
func checkAgainstScan(t *testing.T, ops []ledgerOp) {
	t.Helper()
	lg := NewLedger("l")
	rw := NewRWLedger("rw")
	var ring, writers, readers refRing
	for k, op := range ops {
		got, _ := lg.ReserveAt(op.at, op.hold)
		if want := refReserve(&ring, op.at, op.hold, &ring, nil); got != want {
			t.Fatalf("op %d %+v: Ledger.ReserveAt starts at %d, the scan at %d", k, op, got, want)
		}
		if got, want := lg.NextFree(), ring.maxEnd(); got != want {
			t.Fatalf("op %d: NextFree = %d, latest live end %d", k, got, want)
		}
		var want Time
		if op.write {
			got, _ = rw.ReserveWrite(op.at, op.hold)
			want = refReserve(&writers, op.at, op.hold, &writers, &readers)
		} else {
			got, _ = rw.ReserveRead(op.at, op.hold)
			want = refReserve(&readers, op.at, op.hold, &writers, nil)
		}
		if got != want {
			t.Fatalf("op %d %+v: RWLedger starts at %d, the scan at %d", k, op, got, want)
		}
		for _, r := range []*spanRing{&lg.ring, &rw.writers, &rw.readers} {
			if err := r.checkIndex(); err != "" {
				t.Fatalf("op %d: %s", k, err)
			}
		}
	}
}

// checkIndex reports how r's index fails to list its live slots, each
// once, in (start, end) order and, among equal spans, in push order.
func (r *spanRing) checkIndex() string {
	n := r.len()
	var seen [ringCap]bool
	for i, slot := range r.byStart[:n] {
		age := (int(slot) - r.n%ringCap + ringCap) % ringCap // 0: oldest
		switch {
		case int(slot) >= n || seen[slot]:
			return fmt.Sprintf("index %v lists slot %d twice or past %d live", r.byStart[:n], slot, n)
		case i > 0 && r.spans[slot].before(r.spans[r.byStart[i-1]]):
			return fmt.Sprintf("index position %d (slot %d) is out of (start, end) order", i, slot)
		case i > 0 && r.spans[slot] == r.spans[r.byStart[i-1]] &&
			age < (int(r.byStart[i-1])-r.n%ringCap+ringCap)%ringCap:
			return fmt.Sprintf("index position %d (slot %d) precedes an older equal span", i, slot)
		}
		seen[slot] = true
	}
	return ""
}

// shapeFor picks seed's shape: the clock's step sets the offered load (from
// a deep backlog at step 20 to mostly idle at 400), with or without long
// holds.
func shapeFor(seed uint64) ledgerShape {
	return ledgerShape{
		step:   []int{20, 60, 100, 400}[seed%4],
		skew:   []int{50, 500, 5000}[seed/4%3],
		longIn: []int{0, 50, 500}[seed/12%3],
	}
}

func TestLedgerMatchesRingScan(t *testing.T) {
	// The reference rescans up to ringCap spans per conflict, which the
	// race detector slows about 25-fold: under it, one seed per shape.
	seeds, n := 200, 3000
	if testing.Short() || raceEnabled {
		seeds = 36
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		checkAgainstScan(t, ledgerOps(seed, shapeFor(seed), n))
	}
}

func FuzzLedgerAgainstScan(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 4, 17, 29, 300} {
		sh := shapeFor(seed)
		f.Add(seed, uint16(sh.step), uint16(sh.skew), uint16(sh.longIn))
	}
	f.Fuzz(func(t *testing.T, seed uint64, step, skew, longIn uint16) {
		checkAgainstScan(t, ledgerOps(seed, ledgerShape{int(step), int(skew), int(longIn)}, 1000))
	})
}

// TestLedgerReserveAllocs: a booking on full rings allocates nothing.
func TestLedgerReserveAllocs(t *testing.T) {
	lg := NewLedger("l")
	rw := NewRWLedger("rw")
	ops := ledgerOps(7, ledgerShape{step: 60, skew: 500, longIn: 50}, 4*ringCap)
	run := func() {
		for _, op := range ops {
			lg.ReserveAt(op.at, op.hold)
			if op.write {
				rw.ReserveWrite(op.at, op.hold)
			} else {
				rw.ReserveRead(op.at, op.hold)
			}
		}
	}
	run() // fill every ring
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("%v allocations per %d bookings, want 0", a, 2*len(ops))
	}
}

func BenchmarkLedgerReserve(b *testing.B) {
	const hold = 100
	// inorder: each booking arrives as the last one ends.
	b.Run("inorder", func(b *testing.B) {
		lg := NewLedger("l")
		var at Time
		for i := 0; i < b.N; i++ {
			_, at = lg.ReserveAt(at, hold)
		}
	})
	// backlog: each booking arrives ringCap holds before the latest end,
	// behind every live span.
	b.Run("backlog", func(b *testing.B) {
		lg := NewLedger("l")
		for i := 0; i < b.N; i++ {
			lg.ReserveAt(lg.NextFree().Add(-ringCap*hold), hold)
		}
	})
	// rw: one writer in three, arrivals skewed behind a clock that keeps
	// the lock busy about half the time; the schedule repeats shifted
	// past its own end.
	b.Run("rw", func(b *testing.B) {
		lg := NewRWLedger("rw")
		ops := ledgerOps(1, ledgerShape{step: 100, skew: 500}, 4096)
		var period Time
		for _, op := range ops {
			period = max(period, op.at.Add(op.hold)+1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := ops[i%len(ops)]
			base := Time(i/len(ops)) * period
			if op.write {
				lg.ReserveWrite(base+op.at, op.hold)
			} else {
				lg.ReserveRead(base+op.at, op.hold)
			}
		}
	})
}
