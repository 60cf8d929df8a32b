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
// virtual p50 684 -> 1200 us. ROADMAP item 8: an exact ledger and a re-tuned
// offered rate have to land together.

// span is one booked interval.
type span struct{ s, e Time }

// spanRing is a fixed-capacity ring of booked spans.
type spanRing struct {
	spans [ringCap]span
	n     int // total pushes (ring index = n % ringCap)
}

const ringCap = 128

func (r *spanRing) push(sp span) {
	r.spans[r.n%ringCap] = sp
	r.n++
}

// len reports how many live spans the ring holds.
func (r *spanRing) len() int {
	if r.n < ringCap {
		return r.n
	}
	return ringCap
}

// conflictEnd returns the end of a live span overlapping [s, s+hold), or 0.
func (r *spanRing) conflictEnd(s Time, hold Duration) Time {
	e := s.Add(hold)
	for i := 0; i < r.len(); i++ {
		sp := r.spans[i]
		if sp.s < e && s < sp.e {
			return sp.e
		}
	}
	return 0
}

// maxEnd reports the latest booked end.
func (r *spanRing) maxEnd() Time {
	var m Time
	for i := 0; i < r.len(); i++ {
		if r.spans[i].e > m {
			m = r.spans[i].e
		}
	}
	return m
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

// Name reports the ledger's name.
func (l *Ledger) Name() string { return l.name }

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
		for {
			ce := l.ring.conflictEnd(start, hold)
			if ce == 0 {
				break
			}
			start = ce
		}
		l.ring.push(span{start, start.Add(hold)})
	}
	end = start.Add(hold)
	l.waitNS += int64(start.Sub(at))
	l.holdNS += int64(hold)
	l.acquires++
	l.mu.Unlock()
	return start, end
}

// NextFree reports the latest booked end — the backlog horizon.
func (l *Ledger) NextFree() Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.maxEnd()
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
	readHoldNS  int64
	writeHoldNS int64
	reads       int64
	writes      int64
}

// NewRWLedger returns a named reader-writer ledger.
func NewRWLedger(name string) *RWLedger { return &RWLedger{name: name} }

// Name reports the ledger's name.
func (l *RWLedger) Name() string { return l.name }

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
		for {
			ce := l.writers.conflictEnd(start, hold)
			if ce == 0 {
				break
			}
			start = ce
		}
		l.readers.push(span{start, start.Add(hold)})
	}
	end = start.Add(hold)
	l.readWaitNS += int64(start.Sub(at))
	l.readHoldNS += int64(hold)
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
		for {
			ce := l.writers.conflictEnd(start, hold)
			if ce2 := l.readers.conflictEnd(start, hold); ce2 > ce {
				ce = ce2
			}
			if ce == 0 {
				break
			}
			start = ce
		}
		l.writers.push(span{start, start.Add(hold)})
	}
	end = start.Add(hold)
	l.writeWaitNS += int64(start.Sub(at))
	l.writeHoldNS += int64(hold)
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
