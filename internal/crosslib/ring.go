package crosslib

import (
	"errors"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/fs"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// ErrRingFull is returned by Prep* when the ring already holds depth
// outstanding operations (staged or completed-but-unreaped). The caller
// should Reap before submitting more — the ring's admission control.
var ErrRingFull = errors.New("crosslib: ring full")

// RingCQE is a completion delivered by Reap. N is op-dependent: bytes
// for reads/writes, admitted pages for prefetch intents. Done is the
// virtual time the operation's effect is available; Reap advances the
// reaping timeline to the latest Done it delivers.
type RingCQE struct {
	User uint64
	N    int64
	Err  error
	Done simtime.Time
}

// ringOp is one staged submission-queue entry plus the library-side
// reconciliation metadata Submit computes for it.
type ringOp struct {
	kind     vfs.RingOpKind
	f        *File
	off      int64
	buf      []byte
	len      int64
	user     uint64
	deadline simtime.Time // 0 = none

	lo, hi int64 // block range, filled in by Submit
}

// Ring is the user-level half of the submission/completion pair: a
// per-tenant descriptor that stages operations (PrepRead/PrepWrite/
// PrepPrefetch), submits them as one kernel crossing (Submit), and
// delivers completions (Reap). It is safe for concurrent use — multiple
// submitter threads may Prep and Submit against one ring while a reaper
// thread drains it; the kernel side feeds every submitter's staged work
// through the shared per-tenant lane so the device sees their combined
// depth.
//
// The library shim still runs on the ring path: read submissions feed
// the descriptor's predictor (which may issue background prefetch),
// flush overlapping parked intents, and update the shared range tree;
// prefetch submissions are elided entirely when the user-level bitmap
// proves the range resident — the same crossing savings as the
// synchronous path, amortized further by batching.
type Ring struct {
	rt     *Runtime
	tenant int
	depth  int

	mu       sync.Mutex
	cond     *sync.Cond
	staged   []ringOp
	cq       []RingCQE
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
	Backpressure int64 // Prep* rejections due to a full ring
	Discarded    int64 // staged-but-unsubmitted ops dropped by Close
}

// Stats snapshots the ring.
func (r *Ring) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RingStats{Submits: r.submits, SQEs: r.sqes,
		Backpressure: r.backpressure, Discarded: r.discarded}
}

// Close shuts the ring down: further Prep* calls fail, and staged ops
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
		return ErrRingFull
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

// PrepReadDeadline is PrepRead with a virtual deadline: if the read
// expires before service its CQE carries vfs.ErrDeadlineExceeded and no
// bytes; if its data lands late the CQE keeps the byte count but still
// reports vfs.ErrDeadlineExceeded.
func (r *Ring) PrepReadDeadline(f *File, buf []byte, off int64, user uint64,
	deadline simtime.Time) error {
	return r.prep(ringOp{kind: vfs.RingRead, f: f, off: off, buf: buf,
		user: user, deadline: deadline})
}

// PrepWrite stages a buffered write of data at off.
func (r *Ring) PrepWrite(f *File, data []byte, off int64, user uint64) error {
	return r.prep(ringOp{kind: vfs.RingWrite, f: f, off: off, buf: data, user: user})
}

// PrepPrefetch stages a prefetch intent for bytes at off.
func (r *Ring) PrepPrefetch(f *File, off, bytes int64, user uint64) error {
	return r.prep(ringOp{kind: vfs.RingPrefetch, f: f, off: off, len: bytes, user: user})
}

// PrepPrefetchDeadline is PrepPrefetch with a virtual deadline: a
// prefetch Submit estimates it cannot finish by the deadline (or that
// has already expired) is shed with vfs.ErrShed before crossing —
// prefetch is the first work to go under pressure, never reads.
func (r *Ring) PrepPrefetchDeadline(f *File, off, bytes int64, user uint64,
	deadline simtime.Time) error {
	return r.prep(ringOp{kind: vfs.RingPrefetch, f: f, off: off, len: bytes,
		user: user, deadline: deadline})
}

// Submit takes everything staged so far through one kernel crossing and
// appends the completions to the ring's CQ, waking reapers. Runs the
// library pre-work (predictor, intent flush, bitmap elision) on the
// submitting timeline, SQPOLL-style. Returns the number of operations
// consumed. Concurrent Submits are safe; each takes its own staged
// snapshot.
func (r *Ring) Submit(tl *simtime.Timeline) int {
	r.mu.Lock()
	batch := r.staged
	r.staged = nil
	if len(batch) > 0 {
		// Taken in the same critical section as the batch: a Close from
		// here on sees submitting > 0 and keeps reapers waiting until
		// this Submit parks its completions.
		r.submitting++
	}
	r.mu.Unlock()
	if len(batch) == 0 {
		return 0
	}

	rt := r.rt
	o := rt.opt
	bs := rt.v.BlockSize()

	root := rt.tr.Root(tl, telemetry.OpRingEnter, batch[0].f.kf.Inode().ID())
	defer root.Finish(tl)
	root.Annotate("sqes", int64(len(batch)))
	if o.Enabled {
		tl.Advance(rt.v.Config().Costs.LibOverhead)
	}

	// Library pre-work: decide per op whether it crosses, and with what.
	kbatch := make([]vfs.RingSQE, 0, len(batch))
	kmeta := make([]*ringOp, 0, len(batch))
	var local []RingCQE
	var op int64
	for i := range batch {
		q := &batch[i]
		f := q.f
		shimmed := o.Enabled && f.sf != nil
		switch q.kind {
		case vfs.RingRead:
			q.lo = q.off / bs
			q.hi = (q.off + int64(len(q.buf)) + bs - 1) / bs
			if q.deadline > 0 && tl.Now() > q.deadline {
				// Already expired: complete locally without a crossing.
				rt.rec.Add(telemetry.CtrRingDeadlineMisses, 1)
				local = append(local, RingCQE{User: q.user,
					Err: vfs.ErrDeadlineExceeded, Done: tl.Now()})
				continue
			}
			if shimmed {
				op = f.observeAccess(tl, q.lo, q.hi)
			}
		case vfs.RingWrite:
			q.lo = q.off / bs
			q.hi = (q.off + int64(len(q.buf)) + bs - 1) / bs
			if shimmed && o.Predict && f.pred != nil {
				f.predMu.Lock()
				f.pred.Observe(q.lo, q.hi-q.lo)
				f.predMu.Unlock()
				op = rt.tick()
			}
		case vfs.RingPrefetch:
			// Mirror the kernel's clamp exactly so the lib-issued pages
			// ledger matches kernel admitted+rejected page for page.
			q.lo = q.off / bs
			q.hi = (q.off + q.len + bs - 1) / bs
			if fb := f.kf.Inode().Blocks(); q.hi > fb {
				q.hi = fb
			}
			if q.len <= 0 || q.hi <= q.lo {
				local = append(local, RingCQE{User: q.user, Done: tl.Now()})
				continue
			}
			if q.deadline > 0 &&
				tl.Now().Add(f.targetBacklog(tl.Now(), q.lo, q.hi)) > q.deadline {
				// The backlog of the backends this intent resolves to
				// alone already pushes completion past the deadline: shed
				// here, before the breaker or bitmap see the intent —
				// prefetch is the first work to go.
				rt.rec.Add(telemetry.CtrRingShedSQEs, 1)
				rt.rec.Add(telemetry.CtrRingShedPrefetchPages, q.hi-q.lo)
				rt.rec.Event(tl.Now(), telemetry.OutcomeShedPrefetch,
					f.kf.Inode().ID(), q.lo, q.hi)
				local = append(local, RingCQE{User: q.user,
					Err: vfs.ErrShed, Done: tl.Now()})
				continue
			}
			if shimmed {
				if o.Visibility && o.BreakerThreshold > 0 && !f.sf.brk.allow(tl.Now()) {
					rt.droppedBreaker.Add(1)
					rt.rec.Event(tl.Now(), telemetry.OutcomeDroppedBreakerOpen,
						f.sf.inoID, q.lo, q.hi)
					local = append(local, RingCQE{User: q.user, Done: tl.Now()})
					continue
				}
				var runBuf [4]bitmap.Run
				if runs := f.sf.tree.AppendNeedsPrefetch(tl, runBuf[:0], q.lo, q.hi); len(runs) == 0 {
					// The bitmap proves the range resident or in flight:
					// the intent is satisfied without crossing. N reports
					// the full intent as covered.
					rt.savedPrefetch.Add(1)
					rt.rec.Event(tl.Now(), telemetry.OutcomeSavedByBitmap,
						f.sf.inoID, q.lo, q.hi)
					local = append(local, RingCQE{User: q.user, N: q.hi - q.lo, Done: tl.Now()})
					continue
				}
			}
			rt.rec.Add(telemetry.CtrLibIssuedPages, q.hi-q.lo)
		}
		kbatch = append(kbatch, vfs.RingSQE{
			F: f.kf, Op: q.kind, Off: q.off, Buf: q.buf, Len: q.len,
			User: q.user, Deadline: q.deadline,
		})
		kmeta = append(kmeta, q)
	}

	var out []RingCQE
	if len(kbatch) > 0 {
		r.mu.Lock()
		r.submits++
		r.mu.Unlock()
		cqes := rt.v.RingEnter(tl, r.tenant, kbatch)
		out = make([]RingCQE, 0, len(cqes)+len(local))
		for i := range cqes {
			cq := &cqes[i]
			q := kmeta[i]
			f := q.f
			if o.Enabled && f.sf != nil {
				// Reconcile the shared tree with the kernel's answer. The
				// inserted pages are already in the cache (in flight until
				// their Done), so marking them cached now is truthful.
				switch q.kind {
				case vfs.RingRead, vfs.RingWrite:
					if cq.Err == nil {
						f.sf.tree.MarkCached(tl, q.lo, q.hi)
					}
				case vfs.RingPrefetch:
					if cq.Err != nil {
						if errors.Is(cq.Err, vfs.ErrShed) ||
							errors.Is(cq.Err, vfs.ErrDeadlineExceeded) {
							// Shed, not failed: the kernel refused the work
							// without touching the device. The breaker —
							// including a half-open probe slot — is left
							// untouched; only the range goes back so a
							// later intent can retry it.
							f.sf.tree.ClearRequested(tl, q.lo, q.hi)
						} else {
							// Definitive failure: one breaker feed for the
							// whole intent, and the range given back.
							f.noteFault(tl, f.sf, true)
							f.sf.tree.ClearRequested(tl, q.lo, q.hi)
						}
					} else {
						if cq.N > 0 {
							f.sf.tree.MarkCached(tl, q.lo, q.lo+cq.N)
							f.noteFault(tl, f.sf, false)
						}
						if q.lo+cq.N < q.hi {
							// Clamped or congestion-dropped remainder:
							// requested bits go back so a later intent can
							// retry it.
							f.sf.tree.ClearRequested(tl, q.lo+cq.N, q.hi)
						}
					}
				}
				f.sf.touch(tl.Now())
			}
			out = append(out, RingCQE{User: cq.User, N: cq.N, Err: cq.Err, Done: cq.Done})
		}
		if o.Enabled {
			rt.maybeEvict(tl, op)
		}
	}
	out = append(out, local...)

	r.mu.Lock()
	r.cq = append(r.cq, out...)
	r.submitting--
	r.mu.Unlock()
	r.cond.Broadcast()
	return len(batch)
}

// Reap blocks until at least min completions are available (or the ring
// is closed), delivers everything queued, and advances tl to the latest
// completion time delivered — the reaper "waits for" the I/O it
// consumes. min <= 0 returns whatever is queued without blocking.
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
	r.cq = nil
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

// targetBacklog reports the worst combined-lane backlog among only the
// stack members serving logical blocks [lo, hi) of the file — what the
// kernel's ringPrefetch weighs too: a saturated member the range never
// touches says nothing about when this intent can finish.
func (f *File) targetBacklog(at simtime.Time, lo, hi int64) simtime.Duration {
	st := f.rt.v.Stack()
	bs := f.rt.v.BlockSize()
	var b simtime.Duration
	var physBuf [4]fs.PhysRun
	for _, pr := range f.kf.Inode().AppendMapRange(physBuf[:0], lo, hi) {
		if d := st.BacklogFor(at, pr.Phys*bs, pr.Count*bs); d > b {
			b = d
		}
	}
	return b
}
