package crosslib

import (
	"errors"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// ErrRingFull is returned by PrepRead and PrepPrefetch when the ring
// already holds depth outstanding operations (staged or
// completed-but-unreaped). The caller should Reap before submitting more —
// the ring's admission control.
var ErrRingFull = errors.New("crosslib: ring full")

// ErrRingClosed is returned by PrepRead and PrepPrefetch after Close.
// Unlike ErrRingFull no Reap clears it: a caller that retries on a full
// ring must not on this.
var ErrRingClosed = errors.New("crosslib: ring closed")

// RingCQE is a completion delivered by Reap — the kernel's, as it is: N is
// op-dependent (bytes for reads, admitted pages for prefetch intents),
// Done is the virtual time the operation's effect is available; Reap
// advances the reaping timeline to the latest Done it delivers.
type RingCQE = vfs.RingCQE

// ringOp is one staged submission-queue entry plus the library-side
// reconciliation metadata Submit computes for it.
type ringOp struct {
	kind     vfs.RingOpKind
	f        *File
	off      int64
	buf      []byte
	len      int64
	user     uint64
	deadline simtime.Time // prefetch only; 0 = none

	lo, hi int64 // block range, filled in by Submit
	// full is what a read's coverage query answered from full nodes, which
	// its settle hands to the mark (File.observeAccess).
	full bitmap.Run
}

// Ring is the user-level half of the submission/completion pair: a
// per-tenant descriptor that stages operations (PrepRead/PrepPrefetch),
// submits them as one kernel crossing (Submit), and delivers completions
// (Reap). It is safe for concurrent use — multiple submitter threads may
// Prep and Submit against one ring while ONE reaper thread drains it (what
// Reap returns is the ring's own storage, lent until the next Reap); the
// kernel side feeds every submitter's staged work through the shared
// per-tenant lane so the device sees their combined depth. A ring in
// steady state allocates nothing: staged ops, completions and Submit's
// scratch all live in buffers it reuses.
//
// The library shim still runs on the ring path: read submissions feed
// the descriptor's predictor (which may issue background prefetch) and
// update the shared range tree; prefetch submissions are elided entirely
// when the user-level bitmap proves the range resident — the same
// crossing savings as the synchronous path, amortized further by
// batching.
type Ring struct {
	rt     *Runtime
	tenant int
	depth  int

	mu     sync.Mutex
	cond   *sync.Cond
	staged []ringOp
	// spare is the staged buffer a finished Submit hands back, so that the
	// next take swaps buffers instead of leaving prep to regrow one.
	spare []ringOp
	// cq collects completions until the next Reap; lent is the buffer the
	// previous Reap handed its caller, which that next Reap takes back as
	// the new cq.
	cq, lent []RingCQE
	inflight int
	closed   bool
	// submitting counts Submit calls that have taken a staged batch and
	// not yet appended its CQEs. Reap's close wakeup waits for it to
	// drain so a Close racing an in-flight Submit never strands parked
	// completions (see Close).
	submitting int

	backpressure int64
	submits      int64
	sqes         int64
	discarded    int64
}

// NewRing creates a ring for one tenant. depth bounds outstanding
// operations (staged plus unreaped); depth <= 0 selects 64.
func (rt *Runtime) NewRing(tenant, depth int) *Ring {
	if depth <= 0 {
		depth = 64
	}
	r := &Ring{rt: rt, tenant: tenant, depth: depth}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// RingStats is the ring's flat accounting.
type RingStats struct {
	Submits      int64 // Submit calls that crossed into the kernel
	SQEs         int64 // operations staged successfully
	Backpressure int64 // Prep rejections due to a full ring
	Discarded    int64 // staged-but-unsubmitted ops dropped by Close
}

// Stats snapshots the ring.
func (r *Ring) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RingStats{Submits: r.submits, SQEs: r.sqes,
		Backpressure: r.backpressure, Discarded: r.discarded}
}

// Close shuts the ring down: further Prep calls fail, and staged ops
// that no Submit has picked up are discarded (counted in
// RingStats.Discarded — submit before closing to drain them).
//
// Close-wakes-all semantics: every blocked Reap is woken, but a reaper
// only returns once the in-flight Submits that raced the close have
// appended their completions — Close never strands a parked CQE, and at
// quiescence every successfully prepped op is either reaped or counted
// discarded. Close does not wait for those Submits itself; it is safe
// to call from any goroutine, concurrently with Prep/Submit/Reap.
func (r *Ring) Close() {
	r.mu.Lock()
	r.closed = true
	// Staged ops no Submit will ever take would otherwise pin inflight
	// forever; drop and count them so accounting stays closed.
	r.discarded += int64(len(r.staged))
	r.inflight -= len(r.staged)
	r.staged = nil
	r.mu.Unlock()
	r.cond.Broadcast()
}

func (r *Ring) prep(op ringOp) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRingClosed
	}
	if r.inflight >= r.depth {
		r.backpressure++
		r.rt.rec.Add(telemetry.CtrRingBackpressure, 1)
		return ErrRingFull
	}
	r.staged = append(r.staged, op)
	r.inflight++
	r.sqes++
	return nil
}

// PrepRead stages a read of len(buf) bytes at off.
func (r *Ring) PrepRead(f *File, buf []byte, off int64, user uint64) error {
	return r.prep(ringOp{kind: vfs.RingRead, f: f, off: off, buf: buf, user: user})
}

// PrepPrefetch stages a prefetch intent for bytes at off, due by the
// virtual deadline (0 = none). A prefetch Submit estimates it cannot finish
// by the deadline (or that has already expired) is shed with vfs.ErrShed
// before crossing — prefetch is the first work to go under pressure, never
// reads; one whose pages land after it completes with
// vfs.ErrDeadlineExceeded and keeps its N.
func (r *Ring) PrepPrefetch(f *File, off, bytes int64, user uint64, deadline simtime.Time) error {
	return r.prep(ringOp{kind: vfs.RingPrefetch, f: f, off: off, len: bytes,
		user: user, deadline: deadline})
}

// submitScratch is the per-Submit working set: the kernel batch, the
// staged op behind each of its entries, the storage the kernel appends
// their completions to, and the completions of the ops that did not cross.
// Pooled rather than kept on the ring, since concurrent Submits on one ring
// are legal.
type submitScratch struct {
	sqes   []vfs.RingSQE
	ops    []*ringOp
	kernel []RingCQE
	local  []RingCQE
}

var submitPool = sync.Pool{New: func() any { return new(submitScratch) }}

// Submit takes everything staged so far through one kernel crossing and
// appends the completions to the ring's CQ, waking reapers: take the
// batch, admit each op (the library pre-work, on the submitting timeline,
// SQPOLL-style), cross once with those that need the kernel, settle each
// answer, park the completions — the kernel's in submission order, then
// the ones completed locally. Returns the number of operations consumed.
// Concurrent Submits are safe; each takes its own staged snapshot.
func (r *Ring) Submit(tl *simtime.Timeline) int {
	r.mu.Lock()
	batch := r.staged
	if len(batch) == 0 {
		r.mu.Unlock()
		return 0
	}
	r.staged, r.spare = r.spare, nil
	// Taken in the same critical section as the batch: a Close from here
	// on sees submitting > 0 and keeps reapers waiting until this Submit
	// parks its completions.
	r.submitting++
	r.mu.Unlock()

	rt := r.rt
	root := rt.tr.Root(tl, telemetry.OpRingEnter, batch[0].f.kf.Inode().ID())
	defer root.Finish(tl)
	root.Annotate("sqes", int64(len(batch)))
	if rt.opt.Enabled {
		tl.Advance(rt.v.Config().Costs.LibOverhead)
	}

	sc := submitPool.Get().(*submitScratch)
	var op int64
	for i := range batch {
		q := &batch[i]
		if done, crosses := r.admit(tl, q, &op); !crosses {
			done.Done = tl.Now()
			sc.local = append(sc.local, done)
			continue
		}
		sc.sqes = append(sc.sqes, vfs.RingSQE{
			F: q.f.kf, Op: q.kind, Off: q.off, Buf: q.buf, Len: q.len,
			User: q.user, Deadline: q.deadline,
		})
		sc.ops = append(sc.ops, q)
	}

	if len(sc.sqes) > 0 {
		sc.kernel = rt.v.RingEnter(tl, r.tenant, sc.sqes, sc.kernel)
		for i := range sc.kernel {
			r.settle(tl, sc.ops[i], &sc.kernel[i])
		}
		if rt.opt.Enabled {
			rt.maybeEvict(tl, op)
		}
	}

	r.mu.Lock()
	if len(sc.sqes) > 0 {
		r.submits++
	}
	r.cq = append(append(r.cq, sc.kernel...), sc.local...)
	clear(batch) // drop the buffers and descriptors before the buffer idles
	r.spare = batch[:0]
	r.submitting--
	r.mu.Unlock()
	r.cond.Broadcast()

	clear(sc.sqes)
	clear(sc.ops)
	sc.sqes, sc.ops, sc.kernel, sc.local = sc.sqes[:0], sc.ops[:0], sc.kernel[:0], sc.local[:0]
	submitPool.Put(sc)
	return len(batch)
}

// admit runs the library pre-work of one staged op and reports whether it
// crosses into the kernel; an op that does not is complete, with the
// returned CQE. op receives the tick of the access it observed, if any.
func (r *Ring) admit(tl *simtime.Timeline, q *ringOp, op *int64) (RingCQE, bool) {
	rt, f := r.rt, q.f
	bs := rt.v.BlockSize()
	shimmed := rt.opt.Enabled && f.sf != nil
	done := RingCQE{User: q.user}
	n := q.len
	if q.kind != vfs.RingPrefetch {
		n = int64(len(q.buf))
	}
	q.lo, q.hi = q.off/bs, (q.off+n+bs-1)/bs
	switch q.kind {
	case vfs.RingRead:
		// At a negative offset the kernel refuses the SQE
		// (vfs.ErrNegativeOffset): nothing to observe.
		if shimmed && q.off >= 0 {
			*op, q.full = f.observeAccess(tl, q.lo, q.hi)
		}
	case vfs.RingPrefetch:
		// Mirror the kernel's clamp exactly so the lib-issued pages
		// ledger matches kernel admitted+rejected page for page.
		q.lo, q.hi = clampToFile(f.kf, q.lo, q.hi-q.lo)
		if q.len <= 0 || q.hi <= q.lo {
			return done, false
		}
		if q.deadline > 0 &&
			tl.Now().Add(f.kf.RangeBacklog(tl.Now(), q.lo, q.hi)) > q.deadline {
			// The backlog of the backends this intent resolves to
			// alone already pushes completion past the deadline: shed
			// here, before the breaker or bitmap see the intent —
			// prefetch is the first work to go.
			rt.rec.Add(telemetry.CtrRingShedSQEs, 1)
			rt.rec.Add(telemetry.CtrRingShedPrefetchPages, q.hi-q.lo)
			rt.rec.Event(tl.Now(), telemetry.OutcomeShedPrefetch,
				f.kf.Inode().ID(), q.lo, q.hi)
			done.Err = vfs.ErrShed
			return done, false
		}
		if shimmed {
			if !rt.breakerAdmits(tl, f.sf, q.lo, q.hi) {
				return done, false
			}
			// The SQE carries the whole intent, not the runs: what the
			// bitmap shows missing only has to be non-empty (and is now
			// marked requested). An elided intent reports itself covered.
			var runBuf [runBufLen]bitmap.Run
			if runs, _ := rt.missingRuns(tl, f.sf, runBuf[:0], q.lo, q.hi); len(runs) == 0 {
				done.N = q.hi - q.lo
				return done, false
			}
		}
		rt.rec.Add(telemetry.CtrLibIssuedPages, q.hi-q.lo)
	}
	return done, true
}

// settle reconciles the shared tree with the kernel's answer to one op
// that crossed. The inserted pages are already in the cache (in flight
// until their Done), so marking them cached now is truthful.
func (r *Ring) settle(tl *simtime.Timeline, q *ringOp, cq *vfs.RingCQE) {
	sf := q.f.sf
	if !r.rt.opt.Enabled || sf == nil {
		return
	}
	switch {
	case q.kind == vfs.RingPrefetch:
		// A prefetch SQE exports no bitmap, and N — the pages admitted —
		// is all it reports of what was granted and of what was fetched.
		r.rt.settle(tl, sf, q.lo, q.hi, cq.N, cq.N, nil, cq.Err)
	case cq.Err == nil:
		sf.markRead(tl, q.off, cq.N, r.rt.v.BlockSize(), q.full)
	}
	r.rt.touch(sf, tl.Now())
}

// Reap blocks until at least min completions are available (or the ring
// is closed), delivers everything queued, and advances tl to the latest
// completion time delivered — the reaper "waits for" the I/O it
// consumes. min <= 0 returns whatever is queued without blocking.
//
// The slice returned is the ring's, as a CQ ring's entries are io_uring's:
// it stays valid until the next Reap on this ring, which reuses it. Consume
// it (or copy it out) before reaping again, and reap a ring from one
// goroutine at a time.
//
// A Close wakes every blocked reaper, but a woken reaper drains the
// completions of Submits that were already in flight at close time
// before returning — Reap never leaks a parked CQE to a racing Close.
func (r *Ring) Reap(tl *simtime.Timeline, min int) []RingCQE {
	r.mu.Lock()
	for min > 0 && len(r.cq) < min && !(r.closed && r.submitting == 0) {
		r.cond.Wait()
	}
	out := r.cq
	r.cq, r.lent = r.lent[:0], out
	r.inflight -= len(out)
	r.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	var maxDone simtime.Time
	for i := range out {
		if out[i].Done > maxDone {
			maxDone = out[i].Done
		}
	}
	if maxDone > tl.Now() {
		tl.WaitUntil(maxDone, simtime.WaitIO)
	}
	return out
}
