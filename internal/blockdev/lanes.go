package blockdev

import (
	"sort"
	"sync"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// DefaultLaneQuantum is the deficit-round-robin quantum: the bytes of
// device work one tenant may dispatch per scheduling round before the
// next tenant is served. 256KB matches mq-deadline's fifo_batch scale —
// large enough to keep sequential runs merged, small enough that one
// streaming tenant cannot starve the rest.
const DefaultLaneQuantum = 256 << 10

// LaneConfig configures a LaneSet.
type LaneConfig struct {
	// Plug is the scheduling policy of the shared dispatch plug.
	Plug PlugConfig
	// Retry bounds transient-fault retry during dispatch.
	Retry RetryPolicy
}

// LaneRequest is one unit of device work staged on a tenant lane. Tag is
// an opaque caller cookie carried through to the LaneResult. Prefetch
// marks readahead work: on a tiered stack its remote-resident extents
// promote on completion (cross-tier prefetch).
type LaneRequest struct {
	Tenant   int
	Op       Op
	Off      int64
	Bytes    int64
	Prefetch bool
	Tag      any
}

// LaneResult is the outcome of one staged request: its completion time
// (or terminal error), when its flush was submitted to the device, and
// how long it waited in the lane before that submission. For a request
// that dispatched on some stack members but not others (Err is then
// non-nil) Pieces carries the per-backend fragment outcomes — which
// pieces actually moved bytes; nil otherwise.
type LaneResult struct {
	Req       LaneRequest
	Done      simtime.Time
	Submitted simtime.Time
	Err       error
	Wait      simtime.Duration
	Pieces    []RequestPiece
}

// laneEntry is a staged request plus its scheduling state.
type laneEntry struct {
	req      LaneRequest
	stagedAt simtime.Time
	attempt  int
}

// lane is one tenant's staging queue plus its DRR deficit and stats. The
// queue is q[head:]: a pop zeroes its slot (so a consumed tag is not kept
// reachable) and advances head, and an emptied queue rewinds to the front
// of its buffer, so a lane in steady state never regrows it.
type lane struct {
	q       []laneEntry
	head    int
	deficit int64

	dispatchedReqs  int64
	dispatchedBytes int64
	maxWait         simtime.Duration
}

// LaneSet is the multi-tenant dispatch stage between rings and the
// device: concurrent submitters stage requests on per-tenant lanes, and
// Dispatch drains every lane in deficit-round-robin order through one
// shared plug, so adjacent work merges across tenants and the device sees
// the combined queue depth. Stage and Dispatch are safe for concurrent
// use; Dispatch calls serialize against each other, modeling the single
// submission context the block layer runs unplugs on.
type LaneSet struct {
	st  *Stack
	cfg LaneConfig
	rec *telemetry.Recorder

	mu     sync.Mutex
	lanes  map[int]*lane
	order  []int // round-robin rotation, tenant insertion order
	rrPos  int
	staged int

	dispatchMu sync.Mutex
	plug       *StackPlug
	batch      []laneEntry // drain's output, reused round to round under dispatchMu
	batches    int64
	commands   int64
	maxBatch   int64
}

// NewLaneSet returns a lane set dispatching into the stack's per-backend
// queues. rec may be nil.
func (st *Stack) NewLaneSet(cfg LaneConfig, rec *telemetry.Recorder) *LaneSet {
	cfg.Plug = cfg.Plug.WithDefaults()
	return &LaneSet{
		st:    st,
		cfg:   cfg,
		rec:   rec,
		lanes: make(map[int]*lane),
		plug:  st.NewPlug(cfg.Plug),
	}
}

// SetTelemetry installs the telemetry recorder (nil disables). Call
// before the first Stage/Dispatch; it is not synchronized with them.
func (ls *LaneSet) SetTelemetry(rec *telemetry.Recorder) { ls.rec = rec }

// Stage queues one request on its tenant's lane at virtual time at. It
// never blocks on in-progress dispatch.
func (ls *LaneSet) Stage(req LaneRequest, at simtime.Time) {
	ls.mu.Lock()
	ln := ls.lanes[req.Tenant]
	if ln == nil {
		ln = &lane{}
		ls.lanes[req.Tenant] = ln
		ls.order = append(ls.order, req.Tenant)
	}
	ln.q = append(ln.q, laneEntry{req: req, stagedAt: at})
	ls.staged++
	ls.mu.Unlock()
}

// restageLocked returns an entry to the back of its lane (retry or
// skipped-after-fault requeue). Caller holds ls.mu.
func (ls *LaneSet) restageLocked(e laneEntry) {
	ln := ls.lanes[e.req.Tenant]
	ln.q = append(ln.q, e)
	ls.staged++
}

// pop removes and returns the head entry of a non-empty lane.
func (ln *lane) pop() laneEntry {
	e := ln.q[ln.head]
	ln.q[ln.head] = laneEntry{}
	ln.head++
	if ln.head == len(ln.q) {
		ln.q, ln.head = ln.q[:0], 0
	}
	return e
}

// drain removes every staged entry in deficit-round-robin order: each
// non-empty lane in rotation earns a quantum of bytes and releases head
// entries that fit its accumulated deficit, so interleaved service is
// proportional even when tenants stage unequal request sizes. An idle
// lane forfeits its deficit (DRR's anti-banking rule). The slice returned
// is ls.batch: the caller holds dispatchMu and is done with it before the
// next drain.
func (ls *LaneSet) drain() []laneEntry {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	clear(ls.batch) // the previous round's tags
	out := ls.batch[:0]
	for ls.staged > 0 {
		id := ls.order[ls.rrPos%len(ls.order)]
		ls.rrPos++
		ln := ls.lanes[id]
		if len(ln.q) == 0 {
			ln.deficit = 0
			continue
		}
		ln.deficit += DefaultLaneQuantum
		for len(ln.q) > 0 && ln.q[ln.head].req.Bytes <= ln.deficit {
			ln.deficit -= ln.q[ln.head].req.Bytes
			out = append(out, ln.pop())
			ls.staged--
		}
		// Anti-banking applies here too, not just when the rotation
		// visits an already-idle lane: a lane drained empty this visit
		// forfeits its leftover deficit. Otherwise a tenant emptied
		// mid-round (often the last one standing, whose lane absorbs a
		// quantum per loop iteration) banks credit across idle periods
		// and jumps the queue when it refills.
		if len(ln.q) == 0 {
			ln.deficit = 0
		}
	}
	ls.batch = out
	return out
}

// Dispatch drains the lanes and submits everything through the shared
// plug as one (or more) asynchronous flushes, appending to out a result for
// every request it resolved and returning the extended slice. (The results
// are read after dispatchMu is released, while the next dispatcher may
// already be running: the buffer is the caller's, not the lane set's.)
// Transient command faults are re-staged with backoff up to the retry
// budget; requests skipped because an earlier command in their flush failed
// are re-staged untouched and picked up by the next round. Dispatch keeps
// flushing until the lanes are empty, so on return every request staged
// before the call has a result (possibly delivered to a concurrent Dispatch
// caller that drained it first).
//
// The flush is submitted at the later of `at` and the drained entries'
// stage times, so a dispatcher whose virtual clock lags a submitter never
// reserves device time in the submitter's past.
func (ls *LaneSet) Dispatch(at simtime.Time, out []LaneResult) []LaneResult {
	ls.dispatchMu.Lock()
	defer ls.dispatchMu.Unlock()
	for {
		batch := ls.drain()
		if len(batch) == 0 {
			return out
		}
		submit := at
		for _, e := range batch {
			if e.stagedAt > submit {
				submit = e.stagedAt
			}
		}
		p := ls.plug
		p.Reset()
		for i := range batch {
			p.MarkPrefetch(batch[i].req.Prefetch)
			p.Add(batch[i].req.Op, batch[i].req.Off, batch[i].req.Bytes, int64(i))
		}
		p.MarkPrefetch(false)
		p.FlushAsync(submit, 0)
		cmds := int64(p.DispatchedCommands())
		ls.mu.Lock()
		if cmds > 0 {
			ls.batches++
			ls.commands += cmds
			if cmds > ls.maxBatch {
				ls.maxBatch = cmds
			}
			ls.rec.Add(telemetry.CtrRingDispatchBatches, 1)
			ls.rec.Add(telemetry.CtrRingDispatchCommands, cmds)
			ls.rec.Observe(telemetry.HistRingBatchCmds, cmds)
		}
		for r, rq := range p.Requests() {
			e := batch[rq.UserLo]
			switch {
			case rq.Issued:
				wait := submit.Sub(e.stagedAt)
				if wait < 0 {
					wait = 0
				}
				ln := ls.lanes[e.req.Tenant]
				ln.dispatchedReqs++
				ln.dispatchedBytes += e.req.Bytes
				if wait > ln.maxWait {
					ln.maxWait = wait
				}
				ls.rec.Observe(telemetry.HistRingQueueWait, int64(wait))
				out = append(out, LaneResult{Req: e.req, Done: rq.Done, Submitted: submit, Wait: wait})
			case rq.Err != nil:
				// A partially dispatched stack request must not restage —
				// its issued pieces already moved bytes (they ride along in
				// Pieces for the caller's accounting).
				if !rq.Partial && IsTransient(rq.Err) && e.attempt < ls.cfg.Retry.Max {
					e.attempt++
					e.stagedAt = rq.Done.Add(ls.cfg.Retry.Backoff(e.attempt))
					ls.restageLocked(e)
					break
				}
				res := LaneResult{Req: e.req, Done: rq.Done, Submitted: submit, Err: rq.Err}
				if rq.Partial {
					res.Pieces = p.piecesOf(r)
				}
				out = append(out, res)
			default:
				// Skipped: an earlier command in its flush failed before
				// this one was submitted. Next round.
				ls.restageLocked(e)
			}
		}
		ls.mu.Unlock()
	}
}

// LaneTenantStats is one tenant's dispatch accounting.
type LaneTenantStats struct {
	Tenant             int
	DispatchedRequests int64
	DispatchedBytes    int64
	MaxQueueWait       simtime.Duration
}

// LaneSetStats snapshots the lane scheduler.
type LaneSetStats struct {
	// Batches and Commands count dispatches that issued device work and
	// the merged commands they carried; MaxBatch is the deepest single
	// dispatch — the achieved-queue-depth headline.
	Batches  int64
	Commands int64
	MaxBatch int64
	// Staged is the requests currently parked in lanes.
	Staged int
	// Tenants is per-tenant accounting, ordered by tenant id.
	Tenants []LaneTenantStats
}

// MeanBatchDepth reports average commands per dispatch batch.
func (s LaneSetStats) MeanBatchDepth() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Commands) / float64(s.Batches)
}

// Stats snapshots the lane set.
func (ls *LaneSet) Stats() LaneSetStats {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	st := LaneSetStats{
		Batches:  ls.batches,
		Commands: ls.commands,
		MaxBatch: ls.maxBatch,
		Staged:   ls.staged,
	}
	for id, ln := range ls.lanes {
		st.Tenants = append(st.Tenants, LaneTenantStats{
			Tenant:             id,
			DispatchedRequests: ln.dispatchedReqs,
			DispatchedBytes:    ln.dispatchedBytes,
			MaxQueueWait:       ln.maxWait,
		})
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}
