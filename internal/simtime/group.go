package simtime

import "sync"

// Group runs a set of simulated threads (one goroutine and one Timeline
// each) one at a time, and aggregates their virtual-time accounting. The
// group's makespan is the latest finish time across members, which is what
// workload throughput is computed against.
//
// Exactly one member runs at a time: it holds the baton. Members launched by
// Go park until Wait starts the group; the baton then goes to the unfinished
// member with the smallest (gated time, id), and a member gives it up only
// at Gate or by returning. So the order in which members reach every shared
// ledger is a function of their virtual clocks, not of the host scheduler,
// and a run is a function of its seed.
type Group struct {
	start Time

	mu      sync.Mutex
	members []*member
	held    bool // some member holds the baton
	wg      sync.WaitGroup
}

// member is one simulated thread of a group.
type member struct {
	tl    *Timeline
	gated Time // virtual time at its last Gate
	done  bool
	wake  chan struct{} // one slot: the baton
}

// NewGroup returns a group whose members all start at the given time.
func NewGroup(start Time) *Group { return &Group{start: start} }

// Go launches fn as a simulated thread with its own timeline. The integer
// is the member index assigned in launch order. fn does not run before Wait.
func (g *Group) Go(fn func(id int, tl *Timeline)) {
	m := &member{tl: NewTimeline(g.start), gated: g.start, wake: make(chan struct{}, 1)}
	g.mu.Lock()
	id := len(g.members)
	g.members = append(g.members, m)
	g.mu.Unlock()

	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer g.finish(m)
		<-m.wake
		fn(id, m.tl)
	}()
}

// passUnlock hands the baton to the unfinished member with the smallest
// (gated time, id), if there is one, and releases g.mu, which the caller
// holds.
func (g *Group) passUnlock() {
	var next *member
	for _, m := range g.members {
		if !m.done && (next == nil || m.gated < next.gated) {
			next = m
		}
	}
	g.held = next != nil
	g.mu.Unlock()
	if next != nil {
		next.wake <- struct{}{}
	}
}

// Gate publishes the member's virtual time and hands the baton to the
// unfinished member with the smallest (gated time, id) — which may be the
// caller, who then carries on without blocking. Call it at operation
// boundaries, holding no locks: between two Gates a member must not wait
// for anything another member does, because no other member is running.
func (g *Group) Gate(id int, tl *Timeline) {
	g.mu.Lock()
	m := g.members[id]
	m.gated = tl.Now()
	g.passUnlock()
	<-m.wake
}

// finish marks a returned member done and hands the baton on.
func (g *Group) finish(m *member) {
	g.mu.Lock()
	m.done = true
	g.passUnlock()
}

// Wait starts the group, unless a member already holds the baton, and
// blocks until every member launched so far has returned.
func (g *Group) Wait() {
	g.mu.Lock()
	if g.held {
		g.mu.Unlock()
	} else {
		g.passUnlock()
	}
	g.wg.Wait()
}

// GroupStats aggregates the accounting of all members after Wait.
type GroupStats struct {
	Threads  int
	Makespan Duration // latest member finish − group start
	Total    Stats    // field-wise sum across members
}

// LockPercent reports lock wait as a percentage of summed member time.
func (s GroupStats) LockPercent() float64 { return s.Total.LockPercent() }

// IOPercent reports I/O wait as a percentage of summed member time.
func (s GroupStats) IOPercent() float64 {
	if s.Total.Elapsed <= 0 {
		return 0
	}
	return 100 * float64(s.Total.IOWait) / float64(s.Total.Elapsed)
}

// Stats aggregates member accounting. Call only after Wait.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out GroupStats
	out.Threads = len(g.members)
	latest := g.start
	for _, m := range g.members {
		latest = MaxTime(latest, m.tl.Now())
		out.Total.Merge(m.tl.Stats())
	}
	out.Makespan = latest.Sub(g.start)
	return out
}

// Worker models a background thread (a CROSS-LIB prefetch helper, kswapd,
// a compaction thread) that exists only in virtual time: submitted work
// executes inline on the submitting goroutine, but its time is charged to
// the worker's own timeline so the submitter does not block.
//
// A submission at virtual time t is processed no earlier than t and no
// earlier than the worker's previous work finishing, which is exactly a
// FIFO queue of one server.
type Worker struct {
	mu   sync.Mutex
	tl   *Timeline
	busy int64 // jobs processed
}

// NewWorker returns a background worker starting at the given time.
func NewWorker(start Time) *Worker {
	return &Worker{tl: NewTimeline(start)}
}

// Run executes fn on the worker's timeline, starting no earlier than the
// submission time at. It returns the worker's virtual time when fn
// finished. fn runs inline under the worker's lock, so submissions from
// multiple threads serialize (as they would on a single helper thread).
func (w *Worker) Run(at Time, fn func(tl *Timeline)) Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.tl.Now() < at {
		// The worker was idle between its last job and this arrival.
		w.tl.WaitUntil(at, WaitIO)
	}
	fn(w.tl)
	w.busy++
	return w.tl.Now()
}

// Now reports the worker's current virtual time.
func (w *Worker) Now() Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tl.Now()
}

// Jobs reports how many submissions the worker has processed.
func (w *Worker) Jobs() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.busy
}

// WorkerPool is a set of background workers; submissions pick the worker
// that can start earliest, approximating a multi-server FIFO queue.
type WorkerPool struct {
	workers []*Worker
}

// NewWorkerPool returns a pool of n background workers.
func NewWorkerPool(n int, start Time) *WorkerPool {
	if n < 1 {
		n = 1
	}
	ws := make([]*Worker, n)
	for i := range ws {
		ws[i] = NewWorker(start)
	}
	return &WorkerPool{workers: ws}
}

// Run submits fn at virtual time at to the least-busy worker and returns
// the virtual completion time.
func (p *WorkerPool) Run(at Time, fn func(tl *Timeline)) Time {
	best := p.workers[0]
	bestFree := best.Now()
	for _, w := range p.workers[1:] {
		if now := w.Now(); now < bestFree {
			best, bestFree = w, now
		}
	}
	return best.Run(at, fn)
}

// EarliestFree reports the soonest virtual time any worker could start a
// new job — the pool's backlog horizon. Submitters use it to drop work
// when the helpers are saturated.
func (p *WorkerPool) EarliestFree() Time {
	best := p.workers[0].Now()
	for _, w := range p.workers[1:] {
		if now := w.Now(); now < best {
			best = now
		}
	}
	return best
}

// Jobs reports total submissions processed across the pool.
func (p *WorkerPool) Jobs() int64 {
	var n int64
	for _, w := range p.workers {
		n += w.Jobs()
	}
	return n
}
