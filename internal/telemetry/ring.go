package telemetry

import (
	"sync"

	"repro/internal/simtime"
)

// Event is one prefetch-decision trace entry.
type Event struct {
	// At is the virtual time the decision was made.
	At simtime.Time `json:"at"`
	// Outcome classifies the decision.
	Outcome Outcome `json:"-"`
	// OutcomeName is the outcome's string form (stable export schema).
	OutcomeName string `json:"outcome"`
	// Ino is the inode the intent targeted.
	Ino int64 `json:"ino"`
	// Lo and Hi bound the block range; Pages = Hi - Lo, except where the
	// outcome says otherwise (dropped-behind counts the pages it freed).
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Pages int64 `json:"pages"`
}

// ring is a bounded event sink: the most recent cap events survive;
// older events are overwritten and counted as dropped.
type ring struct {
	mu      sync.Mutex
	buf     []Event
	next    int   // next write slot
	total   int64 // events ever recorded
	dropped int64 // events overwritten
}

func (r *ring) init(cap int) {
	r.buf = make([]Event, 0, cap)
}

func (r *ring) record(e Event) {
	r.mu.Lock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// snapshot returns the buffered events oldest-first plus totals.
func (r *ring) snapshot() (events []Event, total, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	events = make([]Event, 0, len(r.buf))
	events = append(events, r.buf[r.next:]...)
	events = append(events, r.buf[:r.next]...)
	for i := range events {
		events[i].OutcomeName = events[i].Outcome.String()
	}
	return events, r.total, r.dropped
}
