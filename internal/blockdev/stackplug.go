package blockdev

import (
	"errors"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// ErrPartialStack marks a stacked request that dispatched on some
// members but not others (an earlier command on one member's queue
// failed). The issued pieces' bytes really moved — callers account them
// via Request.Pieces — but the request as a whole did not complete, and
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

// Request is the per-Add aggregate view of a StackPlug flush — the unit
// lane dispatch thinks in. On a single-member stack every request is one
// piece and Pieces is nil.
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
	Pieces    []RequestPiece

	prefetch bool
}

// pieceSrc maps one stack segment (piece) back to the member plug
// segment that carries its dispatch result.
type pieceSrc struct {
	m   int // member index
	idx int // index into the member plug's segments
	req int // index into reqs
}

// StackPlug is the stack's submission queue: the Plug API over a Stack,
// with one sub-plug per member device, so queue depth, merging, and the
// congestion ledger are all per backend. Requests Add()ed against stack
// offsets resolve into member pieces (Segments() exposes piece-level
// results; Requests() the per-Add aggregates); flushes run every member
// queue from the same submission time and, for blocking flushes, wait
// once on the overall maximum — stripe parallelism. A single-member,
// untiered stack delegates to a plain Plug and is byte-identical to it.
type StackPlug struct {
	st  *Stack
	cfg PlugConfig

	// one is the delegate for the single-member fast path (nil when the
	// stack has multiple members).
	one *Plug
	// mem holds one sub-plug per member (multi-member stacks).
	mem []*Plug

	segs    []Segment
	src     []pieceSrc
	reqs    []Request
	pieces  []piece        // resolve scratch
	horizon []simtime.Time // per-member async horizon (AsyncPrefetchChunk)
	cmdBase []int          // finish scratch: per-member command-id bases

	prefetch bool
}

// NewPlug returns a stack plug with cfg's scheduling policy applied to
// every member queue.
func (st *Stack) NewPlug(cfg PlugConfig) *StackPlug {
	p := &StackPlug{st: st, cfg: cfg.WithDefaults()}
	if st.single() {
		p.one = st.members[0].NewPlug(cfg)
		return p
	}
	p.mem = make([]*Plug, len(st.members))
	for i, m := range st.members {
		p.mem[i] = m.NewPlug(cfg)
	}
	p.horizon = make([]simtime.Time, len(st.members))
	return p
}

// Plugged reports whether this plug accumulates (true) or passes through.
func (p *StackPlug) Plugged() bool { return p.cfg.Plugged }

// MarkPrefetch tags subsequently Add()ed requests as prefetch reads:
// with cross-tier prefetch enabled, their remote-resident extents
// promote to the local tier when the read completes. Reset clears it.
func (p *StackPlug) MarkPrefetch(v bool) { p.prefetch = v }

// Reset clears accumulated state, keeping capacity (plugs are pooled).
func (p *StackPlug) Reset() {
	p.prefetch = false
	p.reqs = p.reqs[:0]
	// The async horizon belongs to one request: left standing, a recycled
	// plug would postpone the next request's prefetch as congested where a
	// fresh plug admits it, and virtual time would depend on what the pool
	// happened to hand out.
	for i := range p.horizon {
		p.horizon[i] = 0
	}
	if p.one != nil {
		p.one.Reset()
		return
	}
	for _, mp := range p.mem {
		mp.Reset()
	}
	p.segs = p.segs[:0]
	p.src = p.src[:0]
}

// Add queues one stack request, resolving it into member pieces that
// merge within each member's queue exactly as Plug.Add does. userLo is
// the caller cookie; piece-level Segments carry userLo advanced by each
// piece's block delta so the vfs result grouping works unchanged.
func (p *StackPlug) Add(op Op, off, bytes, userLo int64) {
	if p.one != nil {
		p.one.Add(op, off, bytes, userLo)
		return
	}
	req := len(p.reqs)
	p.reqs = append(p.reqs, Request{Op: op, Off: off, Bytes: bytes, UserLo: userLo, prefetch: p.prefetch})
	bs := p.st.BlockSize()
	p.pieces = p.st.resolveInto(p.pieces[:0], off, bytes)
	for _, pc := range p.pieces {
		mp := p.mem[pc.m]
		mp.Add(op, pc.off, pc.n, userLo+(pc.gOff-off)/bs)
		p.src = append(p.src, pieceSrc{m: pc.m, idx: len(mp.segs) - 1, req: req})
		p.segs = append(p.segs, Segment{Op: op, Off: pc.gOff, Bytes: pc.n,
			UserLo: userLo + (pc.gOff-off)/bs, Cmd: -1})
	}
}

// Segments exposes piece-level results in Add order (after a flush).
func (p *StackPlug) Segments() []Segment {
	if p.one != nil {
		return p.one.Segments()
	}
	return p.segs
}

// Requests exposes the per-Add aggregate results (after a flush).
func (p *StackPlug) Requests() []Request {
	if p.one != nil {
		p.reqs = p.reqs[:0]
		for _, s := range p.one.Segments() {
			p.reqs = append(p.reqs, Request{
				Op: s.Op, Off: s.Off, Bytes: s.Bytes, UserLo: s.UserLo,
				Issued: s.Issued, Congested: s.Congested, Err: s.Err, Done: s.Done,
			})
		}
		return p.reqs
	}
	return p.reqs
}

// Retries reports transient-fault retries performed during FlushSync.
func (p *StackPlug) Retries() int {
	if p.one != nil {
		return p.one.Retries()
	}
	n := 0
	for _, mp := range p.mem {
		n += mp.retries
	}
	return n
}

// DispatchedCommands reports device commands issued by the last flush,
// summed across member queues.
func (p *StackPlug) DispatchedCommands() int {
	if p.one != nil {
		return p.one.DispatchedCommands()
	}
	n := 0
	for _, mp := range p.mem {
		n += mp.DispatchedCommands()
	}
	return n
}

// SyncAccess dispatches one blocking request immediately (the
// passthrough path): pieces reserve their members' priority lanes in
// parallel, faults are pre-flighted for all-or-nothing atomicity, and
// each issued piece books one plug segment+command on its member.
func (p *StackPlug) SyncAccess(tl *simtime.Timeline, op Op, off, bytes int64) error {
	if p.one != nil {
		return p.one.SyncAccess(tl, op, off, bytes)
	}
	err := p.st.Access(tl, op, off, bytes)
	if err != nil {
		return err
	}
	p.pieces = p.st.resolveInto(p.pieces[:0], off, bytes)
	for _, pc := range p.pieces {
		p.st.members[pc.m].countPlug(1, 1, pc.n)
	}
	if op == OpRead {
		p.st.noteRead(tl.Now(), off, bytes, p.prefetch)
	}
	return nil
}

// FlushSync unplugs every member queue as blocking requests from the
// caller's current time — per-member queue depth and retry, one wait on
// the overall maximum, so a striped flush overlaps its members. Returns
// the first command error; segments and requests carry individual
// results.
func (p *StackPlug) FlushSync(tl *simtime.Timeline, rp RetryPolicy) error {
	if p.one != nil {
		return p.one.FlushSync(tl, rp)
	}
	start := tl.Now()
	sp := telemetry.Current(tl)
	var maxDone simtime.Time
	var firstErr error
	for _, mp := range p.mem {
		if len(mp.cmds) == 0 {
			continue
		}
		done, err := mp.flushSyncFrom(sp, start, rp)
		mp.finish()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if done > maxDone {
			maxDone = done
		}
	}
	p.finishStack()
	if maxDone > start {
		tl.WaitUntil(maxDone, simtime.WaitIO)
	}
	return firstErr
}

// FlushAsync unplugs every member queue asynchronously from `at`.
// Congestion control runs per backend: each member queue postpones
// against its own backlog and its own flush horizon, so a saturated
// member never throttles work bound for the others.
func (p *StackPlug) FlushAsync(at simtime.Time, congestionLimit simtime.Duration) {
	if p.one != nil {
		p.one.FlushAsync(at, congestionLimit)
		return
	}
	for _, mp := range p.mem {
		if len(mp.cmds) == 0 {
			continue
		}
		mp.FlushAsync(at, congestionLimit)
	}
	p.finishStack()
}

// finishStack maps member-plug results back onto the stack's piece
// segments (with globally unique command ids), aggregates them into
// per-request results, and books tier read heat for completed reads.
func (p *StackPlug) finishStack() {
	p.cmdBase = p.cmdBase[:0]
	acc := 0
	for _, mp := range p.mem {
		p.cmdBase = append(p.cmdBase, acc)
		acc += len(mp.cmds)
	}
	for r := range p.reqs {
		rq := &p.reqs[r]
		rq.Issued, rq.Congested, rq.Partial = false, false, false
		rq.Err = nil
		rq.Done = 0
		rq.Pieces = rq.Pieces[:0]
	}
	for i := range p.segs {
		s := &p.segs[i]
		src := p.src[i]
		ms := &p.mem[src.m].segs[src.idx]
		s.Cmd = p.cmdBase[src.m] + ms.Cmd
		s.Issued, s.Congested, s.Err, s.Done = ms.Issued, ms.Congested, ms.Err, ms.Done

		rq := &p.reqs[src.req]
		rq.Pieces = append(rq.Pieces, RequestPiece{
			Delta: s.Off - rq.Off, Bytes: s.Bytes, Backend: src.m,
			Issued: s.Issued, Err: s.Err, Done: s.Done,
		})
		if s.Err != nil && rq.Err == nil {
			rq.Err = s.Err
		}
		if s.Done > rq.Done {
			rq.Done = s.Done
		}
	}
	for r := range p.reqs {
		rq := &p.reqs[r]
		issued, congested := 0, 0
		for i := range rq.Pieces {
			if rq.Pieces[i].Issued {
				issued++
			} else if rq.Pieces[i].Err == nil {
				congested++ // congested or skipped; both un-issued without error
			}
		}
		switch {
		case issued == len(rq.Pieces) && issued > 0:
			rq.Issued = true
			if rq.Op == OpRead {
				p.st.noteRead(rq.Done, rq.Off, rq.Bytes, rq.prefetch)
			}
		case issued > 0:
			rq.Partial = true
			if rq.Err == nil {
				rq.Err = ErrPartialStack
			}
		case rq.Err == nil && congested > 0:
			// Nothing issued, nothing failed. Congested only if a piece
			// was actually marked so; pieces skipped after another
			// member's fault stay restageable (Congested false, Err nil).
			rq.Congested = p.anyCongested(r)
		}
	}
}

// anyCongested reports whether any piece segment of request r carries
// the Congested flag.
func (p *StackPlug) anyCongested(r int) bool {
	for i := range p.segs {
		if p.src[i].req == r && p.segs[i].Congested {
			return true
		}
	}
	return false
}

// AsyncPrefetchChunk is the unplugged prefetch primitive: one chunk
// admitted against the per-backend backlog of exactly the members its
// pieces target (plus this caller's own advancing per-member horizon),
// then issued piece-by-piece on the members' combined lanes. Faults are
// pre-flighted for all-or-nothing atomicity. On success the chunk's
// remote extents book prefetch heat (cross-tier promotion). Returns the
// slowest piece's completion.
func (p *StackPlug) AsyncPrefetchChunk(at simtime.Time, off, bytes int64, limit simtime.Duration) (done simtime.Time, congested bool, err error) {
	st := p.st
	if p.one != nil {
		// Single member: identical math, member 0's backlog and horizon.
		if p.horizon == nil {
			p.horizon = make([]simtime.Time, 1)
		}
		p.pieces = append(p.pieces[:0], piece{m: 0, off: off, gOff: off, n: bytes})
	} else {
		p.pieces = st.resolveInto(p.pieces[:0], off, bytes)
	}
	if limit > 0 {
		for _, pc := range p.pieces {
			b := st.members[pc.m].Backlog(at)
			if h := p.horizon[pc.m].Sub(at); h > b {
				b = h
			}
			if b > limit {
				return 0, true, nil
			}
		}
	}
	for i := range p.pieces {
		pc := &p.pieces[i]
		f := st.members[pc.m].inject(OpRead, pc.off, pc.n)
		if f.Err != nil {
			return at.Add(f.Stall), false, f.Err
		}
		pc.stall = f.Stall
	}
	for i := range p.pieces {
		pc := &p.pieces[i]
		d := st.members[pc.m]
		bw, lat := d.params(OpRead)
		hold := d.cfg.CmdOverhead + d.transfer(pc.n, bw)
		admit, end := d.bwAll.ReserveAt(at, hold)
		pdone := end.Add(lat).Add(pc.stall)
		if nh := p.horizon[pc.m].Add(hold); end > nh {
			p.horizon[pc.m] = end
		} else {
			p.horizon[pc.m] = nh
		}
		d.account(OpRead, pc.n)
		if d.rec != nil {
			d.record(OpRead, pc.n, at, admit, pdone)
		}
		d.countPlug(1, 1, pc.n)
		if pdone > done {
			done = pdone
		}
	}
	st.noteRead(done, off, bytes, true)
	return done, false, nil
}
