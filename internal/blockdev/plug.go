package blockdev

import (
	"errors"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Default plug scheduler parameters: a typical NVMe submission-queue
// depth, and a merge window matching large-enough commands that further
// merging stops paying (CmdOverhead amortized below noise).
const (
	DefaultQueueDepth       = 32
	DefaultMergeWindowBytes = 8 << 20
)

// PlugConfig configures the block-layer submission scheduler. Callers Add
// requests and flush: requests accumulate in the plug (mirroring Linux
// block plugging), adjacent same-op requests merge front/back into single
// commands bounded by MergeWindowBytes, and dispatch on unplug models
// QueueDepth in-flight commands: command i may not be submitted before
// command i-QueueDepth completed.
type PlugConfig struct {
	// Deprecated: ignored; every read path plugs.
	Plugged bool

	QueueDepth       int   // 0 selects DefaultQueueDepth
	MergeWindowBytes int64 // 0 selects DefaultMergeWindowBytes
}

// WithDefaults fills zero fields with the default scheduler parameters.
func (c PlugConfig) WithDefaults() PlugConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MergeWindowBytes <= 0 {
		c.MergeWindowBytes = DefaultMergeWindowBytes
	}
	return c
}

// RetryPolicy bounds transient-fault retry during dispatch: up to Max
// retries, backing off Base << (attempt-1) clamped to Cap. The clamp is
// what keeps a large configured retry budget from shifting the backoff
// into overflow (Base << 63 is negative) or into absurd virtual waits.
type RetryPolicy struct {
	Max  int
	Base simtime.Duration
	Cap  simtime.Duration
}

// Backoff returns the clamped wait before retry number attempt (1-based).
func (rp RetryPolicy) Backoff(attempt int) simtime.Duration {
	d := rp.Base
	for i := 1; i < attempt; i++ {
		d <<= 1
		if rp.Cap > 0 && (d >= rp.Cap || d <= 0) {
			return rp.Cap
		}
	}
	if rp.Cap > 0 && d > rp.Cap {
		return rp.Cap
	}
	return d
}

// Segment is one member-level piece of a request submitted through a plug
// — on a single-member stack, the request itself, the unit the caller
// thinks in (a VFS chunk). UserLo is an opaque caller cookie (the VFS
// stores the chunk's first logical block; a later piece of the same
// request carries it advanced by the piece's block delta) carried through
// merging so results can be mapped back without extra bookkeeping.
type Segment struct {
	Op     Op
	Off    int64 // stack offset
	Bytes  int64
	UserLo int64
	// Cmd identifies the merged command this segment became part of,
	// uniquely across the stack's member queues (set by a flush).
	Cmd int

	// Dispatch results.
	//
	// Issued: the segment's command was dispatched and succeeded; Done is
	// its completion time. Err: the command failed (after any injected
	// stall, at Done). Congested: the command was postponed by congestion
	// control and never dispatched. A segment with none of the three set
	// was skipped because an earlier command failed.
	Issued    bool
	Congested bool
	Err       error
	Done      simtime.Time

	m   int // member queue
	cmd int // command index within that queue
	req int // index into the plug's requests
}

// command is one merged device command: one CmdOverhead, one transfer
// reservation, nsegs source segments.
type command struct {
	op    Op
	off   int64 // member-device offset
	bytes int64
	nsegs int

	issued    bool
	congested bool
	err       error
	done      simtime.Time
}

// queue is one member device's accumulated commands plus this plug's
// advancing reservation horizon on that member's combined lane.
type queue struct {
	cmds    []command
	horizon simtime.Time
	base    int // stack-unique id of cmds[0] (set by finish)
}

// submitAt reports when command i may be submitted by a flush starting at
// `at`: with depth commands in flight, not before command i-depth
// completed.
func (q *queue) submitAt(i, depth int, at simtime.Time) simtime.Time {
	if i >= depth && q.cmds[i-depth].done > at {
		return q.cmds[i-depth].done
	}
	return at
}

// ErrPartialStack marks a stacked request that dispatched on some
// members but not others (an earlier command on one member's queue
// failed). The issued pieces' bytes really moved — callers account them
// via LaneResult.Pieces — but the request as a whole did not complete, and
// it must not be re-staged wholesale (that would double-issue the
// completed pieces).
var ErrPartialStack = errors.New("blockdev: request partially dispatched across stack members")

// RequestPiece is one member-level fragment of a stacked request's
// dispatch outcome.
type RequestPiece struct {
	// Delta is the piece's byte offset within its request; Bytes its
	// length. Backend is the member device that served it.
	Delta   int64
	Bytes   int64
	Backend int

	Issued bool
	Err    error
	Done   simtime.Time
}

// Request is the per-Add aggregate view of a flush — the unit lane
// dispatch thinks in.
type Request struct {
	Op     Op
	Off    int64
	Bytes  int64
	UserLo int64

	// Issued: every piece dispatched and succeeded; Done is the slowest
	// piece's completion. Congested: nothing issued, postponed by
	// congestion control. Partial: some pieces issued and some did not —
	// Err is then non-nil (ErrPartialStack when no piece itself failed)
	// and the request must not be re-staged. A request with none of the
	// three set and a nil Err was skipped entirely (restageable).
	Issued    bool
	Congested bool
	Partial   bool
	Err       error
	Done      simtime.Time

	prefetch       bool
	pieces, issued int
}

// StackPlug is the one submission queue of the block layer: a per-timeline
// plug over a Stack with one queue per member device, so queue depth,
// merging, and the congestion ledger are all per backend. Requests Add()ed
// against stack offsets resolve into member pieces (Segments() exposes
// piece-level results; Requests() the per-Add aggregates); flushes run
// every member queue from the same submission time and, for blocking
// flushes, wait once on the overall maximum — stripe parallelism. A
// single-member stack is one queue and one piece per request through the
// same code. Not safe for concurrent use; each simulated thread plugs,
// submits, and unplugs on its own timeline (as in Linux, where the plug
// lives on the task struct).
type StackPlug struct {
	st  *Stack
	cfg PlugConfig

	mem     []queue // one per member device
	segs    []Segment
	reqs    []Request
	pieces  []piece // resolve scratch
	retries int

	prefetch bool
}

// NewPlug returns a plug over the stack with cfg's scheduling policy
// applied to every member queue.
func (st *Stack) NewPlug(cfg PlugConfig) *StackPlug {
	return &StackPlug{st: st, cfg: cfg.WithDefaults(), mem: make([]queue, len(st.members))}
}

// MarkPrefetch tags subsequently Add()ed requests as prefetch reads:
// with cross-tier prefetch enabled, their remote-resident extents
// promote to the local tier when the read completes. Reset clears it.
func (p *StackPlug) MarkPrefetch(v bool) { p.prefetch = v }

// Reset clears accumulated state, keeping capacity (plugs are pooled).
func (p *StackPlug) Reset() {
	p.prefetch = false
	p.retries = 0
	p.segs = p.segs[:0]
	p.reqs = p.reqs[:0]
	for m := range p.mem {
		// The horizon belongs to one request: left standing, a recycled
		// plug would postpone the next request's prefetch as congested
		// where a fresh plug admits it, and virtual time would depend on
		// what the pool happened to hand out.
		p.mem[m] = queue{cmds: p.mem[m].cmds[:0]}
	}
}

// Segments exposes piece-level results in Add order (after a flush).
func (p *StackPlug) Segments() []Segment { return p.segs }

// Requests exposes the per-Add aggregate results (after a flush).
func (p *StackPlug) Requests() []Request { return p.reqs }

// Retries reports transient-fault retries performed during FlushSync.
func (p *StackPlug) Retries() int { return p.retries }

// DispatchedCommands reports device commands issued by the last flush,
// summed across member queues (0 before any flush).
func (p *StackPlug) DispatchedCommands() int {
	n := 0
	for m := range p.mem {
		for i := range p.mem[m].cmds {
			if p.mem[m].cmds[i].issued {
				n++
			}
		}
	}
	return n
}

// Add queues one stack request, resolving it into member pieces. Each
// piece merges into an accumulated command of its member's queue when it
// is device-adjacent (front or back), same op, and the merged command
// stays within the merge window. A piece that bridges two commands
// triggers a second-level merge: the pair it made adjacent coalesces into
// one command (still window-bounded), as in the Linux block layer's
// attempt_back/front_merge. userLo is the caller cookie; piece-level
// Segments carry userLo advanced by each piece's block delta so the vfs
// result grouping works unchanged. Results are populated by
// FlushSync/FlushAsync.
func (p *StackPlug) Add(op Op, off, bytes, userLo int64) {
	req := len(p.reqs)
	p.reqs = append(p.reqs, Request{Op: op, Off: off, Bytes: bytes, UserLo: userLo, prefetch: p.prefetch})
	bs := p.st.BlockSize()
	p.pieces = p.st.resolveInto(p.pieces[:0], off, bytes)
	for _, pc := range p.pieces {
		q := &p.mem[pc.m]
		cmd := -1
		for i := range q.cmds {
			c := &q.cmds[i]
			if c.op != op || c.bytes+pc.n > p.cfg.MergeWindowBytes {
				continue
			}
			switch {
			case c.off+c.bytes == pc.off: // back merge
				c.bytes += pc.n
			case pc.off+pc.n == c.off: // front merge
				c.off = pc.off
				c.bytes += pc.n
			default:
				continue
			}
			c.nsegs++
			cmd = i
			break
		}
		grew := cmd >= 0
		if !grew {
			q.cmds = append(q.cmds, command{op: op, off: pc.off, bytes: pc.n, nsegs: 1})
			cmd = len(q.cmds) - 1
		}
		p.segs = append(p.segs, Segment{Op: op, Off: pc.gOff, Bytes: pc.n,
			UserLo: userLo + (pc.gOff-off)/bs, Cmd: -1, m: pc.m, cmd: cmd, req: req})
		if grew {
			// Only a grown command can have become adjacent to another: a
			// fresh command adjacent to an existing one within the window
			// would have merged above.
			p.coalesce(pc.m, cmd)
		}
	}
}

// coalesce merges command grown of member m's queue (just extended by Add)
// with any command it became adjacent to, window permitting, compacting
// the queue and re-pointing segment indices. Growth repeats on the
// survivor: absorbing a neighbor can expose another window-blocked
// neighbor on the far side.
func (p *StackPlug) coalesce(m, grown int) {
	q := &p.mem[m]
	for {
		merged := false
		a := &q.cmds[grown]
		for j := range q.cmds {
			if j == grown {
				continue
			}
			b := &q.cmds[j]
			if a.op != b.op || a.bytes+b.bytes > p.cfg.MergeWindowBytes {
				continue
			}
			if a.off+a.bytes != b.off && b.off+b.bytes != a.off {
				continue
			}
			// Merge the higher index into the lower to keep submission
			// order stable for queue-depth gating.
			lo, hi := grown, j
			if lo > hi {
				lo, hi = hi, lo
			}
			keep, gone := &q.cmds[lo], &q.cmds[hi]
			if gone.off < keep.off {
				keep.off = gone.off
			}
			keep.bytes += gone.bytes
			keep.nsegs += gone.nsegs
			q.cmds = append(q.cmds[:hi], q.cmds[hi+1:]...)
			for k := range p.segs {
				switch s := &p.segs[k]; {
				case s.m != m:
					// another member's queue
				case s.cmd == hi:
					s.cmd = lo
				case s.cmd > hi:
					s.cmd--
				}
			}
			grown = lo
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}

// FlushSync unplugs every member queue as blocking requests on the
// priority lane from the caller's current time — per-member queue depth
// and transient-fault retry per rp, one wait on the overall maximum, so a
// striped flush overlaps its members. It returns the first command error
// (all commands were already in flight, so later ones still complete;
// segments and requests carry individual results).
func (p *StackPlug) FlushSync(tl *simtime.Timeline, rp RetryPolicy) error {
	start := tl.Now()
	sp := telemetry.Current(tl)
	var maxDone simtime.Time
	var firstErr error
	for m := range p.mem {
		q := &p.mem[m]
		for i := range q.cmds {
			c := &q.cmds[i]
			p.dispatchSync(sp, p.st.members[m], c, q.submitAt(i, p.cfg.QueueDepth, start), rp)
			if c.err != nil && firstErr == nil {
				firstErr = c.err
			}
			if c.done > maxDone {
				maxDone = c.done
			}
		}
	}
	p.finish()
	if maxDone > start {
		tl.WaitUntil(maxDone, simtime.WaitIO)
	}
	return firstErr
}

// dispatchSync issues one command at submit on d's priority lane, with
// bounded transient retry (clamped backoff pushes the re-submission out
// in virtual time).
func (p *StackPlug) dispatchSync(sp *telemetry.Span, d *Device, c *command, submit simtime.Time, rp RetryPolicy) {
	for attempt := 0; ; {
		f := d.inject(c.op, c.off, c.bytes)
		if f.Err == nil {
			c.issued = true
			c.done = d.reserveSync(sp, c.op, c.bytes, c.nsegs, submit, f.Stall)
			return
		}
		failDone := submit.Add(f.Stall)
		sp.Child("dev.fault", telemetry.CatStall, submit, failDone).
			Annotate("bytes", c.bytes)
		if !IsTransient(f.Err) || attempt >= rp.Max {
			c.err = f.Err
			c.done = failDone
			return
		}
		attempt++
		submit = failDone.Add(rp.Backoff(attempt))
		sp.Child("dev.retry_backoff", telemetry.CatRetry, failDone, submit).
			Annotate("attempt", int64(attempt))
		p.retries++
	}
}

// congested reports whether member m's combined lane is backed up past
// limit (> 0) at `at`: the larger of the device's backlog and this plug's
// own advancing reservation horizon there. The horizon advances by at
// least each command's hold (reserveOn): the device is serial, so this
// plug alone needs that much device time past `at`. The floor matters
// because the ledger's bounded span ring forgets old reservations once a
// flush books more spans than the ring holds — reservation ends (and
// Backlog) then stop advancing, and without the floor an arbitrarily
// large flush would never look congested.
func (p *StackPlug) congested(m int, at simtime.Time, limit simtime.Duration) bool {
	if limit <= 0 {
		return false
	}
	b := p.st.members[m].Backlog(at)
	if h := p.mem[m].horizon.Sub(at); h > b {
		b = h
	}
	return b > limit
}

// reserveOn books one command on member m's combined lane at submit and
// advances the plug's horizon there.
func (p *StackPlug) reserveOn(m int, op Op, bytes int64, submit simtime.Time, stall simtime.Duration) simtime.Time {
	done, end, hold := p.st.members[m].reserveAsync(op, bytes, submit, stall)
	q := &p.mem[m]
	if nh := q.horizon.Add(hold); end > nh {
		q.horizon = end
	} else {
		q.horizon = nh
	}
	return done
}

// FlushAsync unplugs every member queue asynchronously: commands reserve
// combined-lane device time from `at` without blocking any timeline,
// gated by queue depth. Congestion control runs per backend and per
// command (see congested): once a member is past congestionLimit, the
// rest of its queue is postponed (segments marked Congested), while a
// saturated member never throttles work bound for the others. A failed
// command aborts dispatch of the rest of its queue.
func (p *StackPlug) FlushAsync(at simtime.Time, congestionLimit simtime.Duration) {
	for m := range p.mem {
		q := &p.mem[m]
		for i := range q.cmds {
			c := &q.cmds[i]
			if p.congested(m, at, congestionLimit) {
				for j := i; j < len(q.cmds); j++ {
					q.cmds[j].congested = true
				}
				break
			}
			submit := q.submitAt(i, p.cfg.QueueDepth, at)
			f := p.st.members[m].inject(c.op, c.off, c.bytes)
			if f.Err != nil {
				c.err = f.Err
				c.done = submit.Add(f.Stall)
				break
			}
			c.issued = true
			c.done = p.reserveOn(m, c.op, c.bytes, submit, f.Stall)
		}
	}
	p.finish()
}

// finish accounts each member's plug merge counters for its successfully
// dispatched commands, maps command results back onto the piece segments
// (with stack-unique command ids), aggregates them into per-request
// results, and books tier read heat for completed reads.
func (p *StackPlug) finish() {
	base := 0
	for m := range p.mem {
		q := &p.mem[m]
		q.base = base
		base += len(q.cmds)
		var segs, cmds, bytes int64
		for i := range q.cmds {
			if c := &q.cmds[i]; c.issued {
				segs += int64(c.nsegs)
				cmds++
				bytes += c.bytes
			}
		}
		if cmds > 0 {
			p.st.members[m].countPlug(segs, cmds, bytes)
		}
	}
	for i := range p.segs {
		s := &p.segs[i]
		c := &p.mem[s.m].cmds[s.cmd]
		s.Cmd = p.mem[s.m].base + s.cmd
		s.Issued, s.Congested, s.Err, s.Done = c.issued, c.congested, c.err, c.done

		rq := &p.reqs[s.req]
		rq.pieces++
		switch {
		case s.Issued:
			rq.issued++
		case s.Congested:
			rq.Congested = true
		}
		if s.Err != nil && rq.Err == nil {
			rq.Err = s.Err
		}
		if s.Done > rq.Done {
			rq.Done = s.Done
		}
	}
	for r := range p.reqs {
		rq := &p.reqs[r]
		// Congested only if nothing issued, nothing failed, and a piece was
		// actually marked so; pieces skipped after another member's fault
		// stay restageable (Congested false, Err nil).
		rq.Congested = rq.Congested && rq.issued == 0 && rq.Err == nil
		switch {
		case rq.issued == rq.pieces:
			rq.Issued = true
			if rq.Op == OpRead {
				p.st.noteRead(rq.Done, rq.Off, rq.Bytes, rq.prefetch)
			}
		case rq.issued > 0:
			rq.Partial = true
			if rq.Err == nil {
				rq.Err = ErrPartialStack
			}
		}
	}
}

// piecesOf materialises the per-backend fragment outcomes of request r
// (after a flush) — needed only where a partially dispatched request's
// issued pieces must be accounted one by one.
func (p *StackPlug) piecesOf(r int) []RequestPiece {
	var out []RequestPiece
	for i := range p.segs {
		if s := &p.segs[i]; s.req == r {
			out = append(out, RequestPiece{
				Delta: s.Off - p.reqs[r].Off, Bytes: s.Bytes, Backend: s.m,
				Issued: s.Issued, Err: s.Err, Done: s.Done,
			})
		}
	}
	return out
}
