package simtime

import "sync"

// Ledgers are interval schedulers: a reservation books the span
// [start, start+hold) where start is the earliest time ≥ the request time
// that does not overlap a conflicting booked span. Because a group member
// runs a whole operation per turn (simtime.Group), and helpers and other
// timelines run ahead of it, requests reach a ledger at skewed virtual
// times: one arriving later but "early" in virtual time backfills idle gaps
// instead of queueing behind future holds — without this, one thread
// running ahead would serialize the whole simulation behind its
// reservations.
//
// Bookings are kept in a fixed ring; spans older than the ring capacity
// are forgotten. A group hands its turn to the member furthest behind, so a
// forgotten span is normally one in every caller's past. Not always: a
// resource backlogged more than ringCap reservations deep loses bookings
// that are still in the future, and later requests backfill the time they
// held. The bench's serve_rings cell runs in that regime (offered 1.5x its
// device's rate) and its latency depends on ringCap: 128 -> 256 moved its
// virtual p50 684 -> 1200 us. ROADMAP item 8: pruning by time rather than by
// count and a re-tuned offered rate have to land together.
//
// The ring is indexed: byStart lists its live slots in (start, end) order,
// so a booking is found by one ordered walk (firstFit) over only the spans
// that can overlap it. The walk returns the least feasible start at or
// after the request, which is a function of the live set alone; the index
// decides how fast it is found, never where. ledger_test.go checks it
// against a plain rescan of the ring after every conflict.

// span is one booked interval.
type span struct{ s, e Time }

// before orders spans by start, then end.
func (a span) before(b span) bool { return a.s < b.s || a.s == b.s && a.e < b.e }

// spanRing is a fixed-capacity FIFO ring of booked spans, indexed by start.
type spanRing struct {
	spans   [ringCap]span
	byStart [ringCap]uint8 // live slots, sorted by (s, e)
	n       int            // total pushes (ring index = n % ringCap)
	hi      Time           // latest end ever pushed
	maxHold Duration       // longest span ever pushed
}

const ringCap = 128

// push books sp, evicting the oldest span once the ring is full. A span
// goes into the index after every equal one, so equal spans stand in push
// order and the evicted span, the oldest live one, is the first of its
// equals: where a binary search for its value lands.
func (r *spanRing) push(sp span) {
	live := r.len()
	slot := uint8(r.n % ringCap)
	if live == ringCap {
		old := r.spans[slot]
		i := r.search(live, func(o span) bool { return o.before(old) })
		live--
		copy(r.byStart[i:live], r.byStart[i+1:])
	}
	r.spans[slot] = sp
	i := r.search(live, func(o span) bool { return !sp.before(o) })
	copy(r.byStart[i+1:live+1], r.byStart[i:live])
	r.byStart[i] = slot
	r.n++
	r.hi = max(r.hi, sp.e)
	r.maxHold = max(r.maxHold, sp.e.Sub(sp.s))
}

// search returns how many of the first n index entries have spans that
// satisfy below, which must hold for a prefix of the index.
func (r *spanRing) search(n int, below func(span) bool) int {
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if below(r.spans[r.byStart[m]]) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// from returns the index position of the first span that can end after at:
// one starting later than at - maxHold.
func (r *spanRing) from(at Time) int {
	floor := at.Add(-r.maxHold)
	return r.search(r.len(), func(o span) bool { return o.s <= floor })
}

// len reports how many live spans the ring holds.
func (r *spanRing) len() int {
	if r.n < ringCap {
		return r.n
	}
	return ringCap
}

// firstFit returns the least t ≥ at such that [t, t+hold) overlaps no live
// span of a or, when b is non-nil, of b; hold must be positive. It walks
// the rings' spans in start order, from the first that can reach at:
// a span that overlaps the candidate moves it to the span's end, since no
// start in between can avoid that span, and the first span starting at or
// after the candidate's end stops the walk, since no later one can
// overlap it.
func firstFit(a, b *spanRing, at Time, hold Duration) Time {
	hi := a.hi
	if b != nil {
		hi = max(hi, b.hi)
	}
	if at >= hi {
		return at
	}
	t := at
	i, na := a.from(at), a.len()
	j, nb := 0, 0
	if b != nil {
		j, nb = b.from(at), b.len()
	}
	for {
		var sp span
		switch {
		case i < na && (j >= nb || a.spans[a.byStart[i]].s <= b.spans[b.byStart[j]].s):
			sp = a.spans[a.byStart[i]]
			i++
		case j < nb:
			sp = b.spans[b.byStart[j]]
			j++
		default:
			return t
		}
		if sp.s >= t.Add(hold) {
			return t
		}
		if sp.e > t {
			t = sp.e
		}
	}
}

// Ledger models an exclusively held resource (a mutex, a device lane).
// A request at virtual time t is admitted at the earliest non-conflicting
// time ≥ t. Ledgers are safe for concurrent use.
type Ledger struct {
	name string

	mu   sync.Mutex
	ring spanRing

	waitNS   int64
	holdNS   int64
	acquires int64
}

// NewLedger returns a named exclusive-resource ledger.
func NewLedger(name string) *Ledger { return &Ledger{name: name} }

// Use acquires the resource at the thread's current time, holds it for
// hold, and releases it, advancing the thread past any queueing delay.
// Queueing delay is accounted as lock wait on the timeline.
func (l *Ledger) Use(tl *Timeline, hold Duration) {
	start, end := l.ReserveAt(tl.Now(), hold)
	tl.WaitUntil(start, WaitLock)
	tl.Advance(end.Sub(start))
}

// ReserveAt books the resource for hold starting no earlier than at,
// without touching any timeline. It returns the admitted start and end.
func (l *Ledger) ReserveAt(at Time, hold Duration) (start, end Time) {
	if hold < 0 {
		hold = 0
	}
	l.mu.Lock()
	start = at
	if hold > 0 {
		start = firstFit(&l.ring, nil, at, hold)
		l.ring.push(span{start, start.Add(hold)})
	}
	end = start.Add(hold)
	l.waitNS += int64(start.Sub(at))
	l.holdNS += int64(hold)
	l.acquires++
	l.mu.Unlock()
	return start, end
}

// NextFree reports the latest booked end — the backlog horizon. A
// Ledger's live spans are pairwise disjoint (each booking avoids every live
// one), so the last in start order ends latest.
func (l *Ledger) NextFree() Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.ring.len(); n > 0 {
		return l.ring.spans[l.ring.byStart[n-1]].e
	}
	return 0
}

// LedgerStats is a snapshot of ledger contention counters.
type LedgerStats struct {
	Name     string
	Acquires int64
	Wait     Duration
	Hold     Duration
}

// Stats snapshots the ledger counters.
func (l *Ledger) Stats() LedgerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerStats{
		Name:     l.name,
		Acquires: l.acquires,
		Wait:     Duration(l.waitNS),
		Hold:     Duration(l.holdNS),
	}
}

// RWLedger models a reader-writer lock in virtual time: readers overlap
// with each other and conflict only with writer spans; writers conflict
// with everything.
type RWLedger struct {
	name string

	mu      sync.Mutex
	writers spanRing
	readers spanRing

	readWaitNS  int64
	writeWaitNS int64
	reads       int64
	writes      int64
}

// NewRWLedger returns a named reader-writer ledger.
func NewRWLedger(name string) *RWLedger { return &RWLedger{name: name} }

// Read acquires the lock shared at the thread's time, holds for hold, and
// releases. Readers only wait for conflicting writer spans.
func (l *RWLedger) Read(tl *Timeline, hold Duration) {
	start, end := l.ReserveRead(tl.Now(), hold)
	tl.WaitUntil(start, WaitLock)
	tl.Advance(end.Sub(start))
}

// Write acquires the lock exclusive at the thread's time, holds for hold,
// and releases. Writers wait for both readers and writers.
func (l *RWLedger) Write(tl *Timeline, hold Duration) {
	start, end := l.ReserveWrite(tl.Now(), hold)
	tl.WaitUntil(start, WaitLock)
	tl.Advance(end.Sub(start))
}

// ReserveRead books a shared hold starting no earlier than at.
func (l *RWLedger) ReserveRead(at Time, hold Duration) (start, end Time) {
	if hold < 0 {
		hold = 0
	}
	l.mu.Lock()
	start = at
	if hold > 0 {
		start = firstFit(&l.writers, nil, at, hold)
		l.readers.push(span{start, start.Add(hold)})
	}
	end = start.Add(hold)
	l.readWaitNS += int64(start.Sub(at))
	l.reads++
	l.mu.Unlock()
	return start, end
}

// ReserveWrite books an exclusive hold starting no earlier than at.
func (l *RWLedger) ReserveWrite(at Time, hold Duration) (start, end Time) {
	if hold < 0 {
		hold = 0
	}
	l.mu.Lock()
	start = at
	if hold > 0 {
		start = firstFit(&l.writers, &l.readers, at, hold)
		l.writers.push(span{start, start.Add(hold)})
	}
	end = start.Add(hold)
	l.writeWaitNS += int64(start.Sub(at))
	l.writes++
	l.mu.Unlock()
	return start, end
}

// RWLedgerStats is a snapshot of RW ledger contention counters.
type RWLedgerStats struct {
	Name      string
	Reads     int64
	Writes    int64
	ReadWait  Duration
	WriteWait Duration
}

// Stats snapshots the ledger counters.
func (l *RWLedger) Stats() RWLedgerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return RWLedgerStats{
		Name:      l.name,
		Reads:     l.reads,
		Writes:    l.writes,
		ReadWait:  Duration(l.readWaitNS),
		WriteWait: Duration(l.writeWaitNS),
	}
}
