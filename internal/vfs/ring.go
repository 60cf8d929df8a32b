package vfs

import (
	"sync"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Ring servicing: the kernel half of the io_uring-style submission path.
//
// RingEnter is one syscall crossing that services a whole batch of SQEs.
// Cache hits complete inline; each miss is cut into VFS-sized chunks and
// staged on the caller's tenant lane (blockdev.LaneSet). The enter then
// dispatches EVERYTHING currently staged — its own chunks and any a
// concurrent submitter raced in — through the shared plug, so the device
// sees the combined queue depth of all active tenants, with fair-share
// (deficit-round-robin) ordering deciding whose work reserves device time
// first. This is the SQPOLL idiom folded into the entering thread: the
// dispatch work runs on whichever tenant crosses next, and its virtual
// time is charged to that thread.
//
// Two deliberate divergences from the synchronous path:
//
//   - RingEnter never blocks on device completions. A CQE carries the
//     virtual completion time (Done); the reaper waits on it. Present
//     pages' in-flight ready times flow into Done uncapped (the sync
//     path's waitInflight cap models a blocking reader's option to
//     demand-read instead, which a queued SQE does not have).
//   - The kernel readahead state machine is not consulted: on the ring
//     path prefetch policy lives with the caller (CROSS-LIB's predictor
//     submits explicit prefetch SQEs).
type RingOpKind int

// Ring operation kinds.
const (
	// RingNop completes immediately (liveness probes, barriers).
	RingNop RingOpKind = iota
	// RingRead is pread(2): Buf is filled from Off; N is bytes read.
	RingRead
	// RingPrefetch asks for Len bytes at Off to be brought into the cache
	// asynchronously (readahead_info's prefetch half); N is pages
	// admitted after the limit clamp.
	RingPrefetch
)

// RingSQE is one submission-queue entry.
type RingSQE struct {
	F    *File
	Op   RingOpKind
	Off  int64
	Buf  []byte // RingRead destination
	Len  int64  // RingPrefetch byte length
	User uint64 // opaque completion cookie
	// Deadline is an optional virtual deadline for a RingPrefetch (0 =
	// none). A prefetch whose deadline has passed at enter is shed
	// (ErrShed); one whose pages land after it keeps its N but carries
	// ErrDeadlineExceeded (the pages are cached, merely late).
	Deadline simtime.Time
}

// RingCQE is one completion-queue entry. Done is the virtual time the
// operation's effect is available (data readable, prefetch resident);
// the reaper advances its timeline to the CQEs it consumes.
type RingCQE struct {
	User uint64
	N    int64
	Err  error
	Done simtime.Time
}

// ringPending accumulates one SQE's outcome across its staged chunks,
// which may be resolved by this enter's dispatch or by a concurrent
// tenant's (whichever drained the lane first).
type ringPending struct {
	mu   sync.Mutex
	done simtime.Time
	err  error
}

// ringFrame is the working set of one RingEnter: the pending table its
// chunks settle into, the wait group that counts them, and the buffer its
// dispatch collects lane results in. Frames are recycled, which is safe
// because an enter returns only after wg.Wait has seen every chunk it staged
// settle — including those a racing tenant's dispatch completed — so nothing
// outside the enter still points into a frame that goes back to the pool.
type ringFrame struct {
	pends   []ringPending
	wg      sync.WaitGroup
	results []blockdev.LaneResult
}

var ringFramePool = sync.Pool{New: func() any { return new(ringFrame) }}

// reset sizes the pending table for n SQEs with every entry idle. Field by
// field: a ringPending holds a mutex, and is not to be copied over.
func (fr *ringFrame) reset(n int) {
	if cap(fr.pends) < n {
		fr.pends = make([]ringPending, n)
	}
	fr.pends = fr.pends[:n]
	for i := range fr.pends {
		fr.pends[i].done, fr.pends[i].err = 0, nil
	}
}

// release recycles the frame of an enter that has seen its chunks settle,
// dropping the results of its dispatch first: their tags would keep files
// reachable from the pool. (Not deferred: an enter that panics with chunks
// still staged must not put the frame they point into back in circulation.)
func (fr *ringFrame) release() {
	clear(fr.results)
	ringFramePool.Put(fr)
}

func (p *ringPending) advance(t simtime.Time) {
	p.mu.Lock()
	if t > p.done {
		p.done = t
	}
	p.mu.Unlock()
}

// refuse is fail for a submission turned away (shed, expired) rather than
// failed by the device; the type admits the two sentinels only.
func (p *ringPending) refuse(r *Refusal, t simtime.Time) { p.fail(r, t) }

func (p *ringPending) fail(err error, t simtime.Time) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	if t > p.done {
		p.done = t
	}
	p.mu.Unlock()
}

// ringChunk is the lane tag of one staged device chunk: enough to insert
// the fetched pages and settle its SQE on completion. Whoever completes a
// chunk recycles its tag (completeRingChunk), zeroed.
type ringChunk struct {
	pend     *ringPending
	wg       *sync.WaitGroup
	f        *File
	lo       int64 // first logical block
	blocks   int64
	tenant   int
	prefetch bool
}

var ringChunkPool = sync.Pool{New: func() any { return new(ringChunk) }}

// RingEnter submits a batch of SQEs for tenant in one kernel crossing and
// appends their CQEs, in submission order, to cqes — storage the caller
// owns — returning the extended slice. It is safe for concurrent use
// from any number of tenants (each on its own timeline). On return every
// CQE is final; Done times may lie in the caller's future — the reaper
// side waits on them.
func (v *VFS) RingEnter(tl *simtime.Timeline, tenant int, sqes []RingSQE, cqes []RingCQE) []RingCQE {
	defer v.observeSyscall(tl, SysRingEnter)()
	v.enter(tl, SysRingEnter)
	v.rec.Add(telemetry.CtrRingEnterCalls, 1)
	v.rec.Add(telemetry.CtrRingSQESubmitted, int64(len(sqes)))
	sp := telemetry.Begin(tl, "vfs.ring_enter", telemetry.CatCPU)
	sp.Annotate("sqes", int64(len(sqes)))
	defer sp.End(tl)

	base := len(cqes)
	fr := ringFramePool.Get().(*ringFrame)
	fr.reset(len(sqes))
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)

	for i := range sqes {
		sq := &sqes[i]
		pend := &fr.pends[i]
		cqes = append(cqes, RingCQE{User: sq.User})
		cq := &cqes[base+i]
		switch sq.Op {
		case RingRead:
			cq.N = v.ringRead(tl, tenant, sq, pend, &fr.wg, sc)
		case RingPrefetch:
			cq.N = v.ringPrefetch(tl, tenant, sq, pend, &fr.wg, sc)
		}
		pend.advance(tl.Now())
	}

	// Grab-all dispatch: drain the lanes (ours and any concurrent
	// submitter's staging) through the shared plug. If a racing enter's
	// dispatch grabbed our chunks, it resolves them on its side; the
	// WaitGroup covers the window where that dispatch is still running.
	v.ringDispatch(tl, fr)
	fr.wg.Wait()

	for i := range sqes {
		p, cq := &fr.pends[i], &cqes[base+i]
		cq.Err = p.err
		cq.Done = p.done
		if p.err != nil && sqes[i].Op == RingRead {
			// The demand data never arrived; nothing counted as read.
			cq.N = 0
		}
		if d := sqes[i].Deadline; d > 0 && p.err == nil && p.done > d {
			// Late completion: the work was done (pages cached, N kept)
			// but after the deadline — reported distinctly from a shed.
			cq.Err = ErrDeadlineExceeded
			v.rec.Add(telemetry.CtrRingDeadlineMisses, 1)
		}
	}
	fr.release()
	v.rec.Add(telemetry.CtrRingCQECompleted, int64(len(sqes)))
	return cqes
}

// RingStats exposes the lane scheduler's dispatch accounting (achieved
// batch depth, per-tenant fairness).
func (v *VFS) RingStats() blockdev.LaneSetStats { return v.lanes.Stats() }

// ringDispatch drains every staged lane chunk through the shared plug and
// applies the completions (page insertion, counters, SQE settlement) on
// this thread. Insert costs are charged to the dispatching timeline even
// for chunks other tenants staged — the SQPOLL thread happens to run on
// this tenant's clock.
func (v *VFS) ringDispatch(tl *simtime.Timeline, fr *ringFrame) {
	fr.results = v.lanes.Dispatch(tl.Now(), fr.results[:0])
	for _, r := range fr.results {
		v.completeRingChunk(tl, r.Req.Tag.(*ringChunk), r)
	}
}

// completeRingChunk settles one dispatched chunk: inserts its pages (with
// the device completion as ready time), feeds the cross-layer counters,
// and records the queue-wait vs service attribution on the dispatcher's
// span.
func (v *VFS) completeRingChunk(tl *simtime.Timeline, c *ringChunk, r blockdev.LaneResult) {
	// Done comes after the last use of c.pend: it is what lets the staging
	// enter return and its frame, which c.pend and c.wg point into, be
	// reused. The tag itself stays this completer's until it is pooled.
	defer func() {
		c.wg.Done()
		*c = ringChunk{}
		ringChunkPool.Put(c)
	}()
	if r.Err != nil {
		// On a partially dispatched stack request the issued pieces really
		// moved bytes: the cross-layer identities (device read bytes ==
		// demand + prefetch pages) require counting them, and the fetched
		// data is inserted with each piece's own ready time (the data is
		// good — this is not poisoning). Then the SQE fails for the rest.
		bs := v.BlockSize()
		for _, pc := range r.Pieces {
			if pc.Issued {
				c.book(tl, c.lo+pc.Delta/bs, (pc.Bytes+bs-1)/bs, pc.Done)
			}
		}
		v.rec.Event(r.Done, telemetry.OutcomeDeviceFault, c.f.ino.ID(), c.lo, c.lo+c.blocks)
		if !c.prefetch {
			v.rec.Add(telemetry.CtrVFSDemandIOErrors, 1)
		}
		c.pend.fail(r.Err, r.Done)
		return
	}
	if sp := telemetry.Current(tl); sp != nil {
		if r.Wait > 0 {
			sp.Child("ring.queue_wait", telemetry.CatQueue, r.Submitted.Add(-r.Wait), r.Submitted)
		}
		sp.Child("dev.async_read", telemetry.CatDevice, r.Submitted, r.Done).
			Annotate("bytes", c.blocks*v.BlockSize())
	}
	if c.prefetch {
		v.rec.Observe(telemetry.HistPrefetchLat, int64(r.Done.Sub(r.Submitted)))
	}
	c.book(tl, c.lo, c.blocks, r.Done)
	c.pend.advance(r.Done)
}

// book books pages [lo, lo+blocks) of the chunk, read by done, as what the
// chunk was staged for: a tenant's demand read or its prefetch intent.
func (c *ringChunk) book(tl *simtime.Timeline, lo, blocks int64, done simtime.Time) {
	if !c.prefetch {
		c.f.bookDemand(tl, lo, blocks, done, c.tenant)
		return
	}
	n := c.f.bookPrefetch(tl, lo, blocks, pagecache.InsertOptions{
		ReadyAt: done, MarkerAt: -1, Origin: telemetry.OriginRing, Tenant: c.tenant})
	c.f.v.rec.Add(telemetry.CtrKernelPrefetchedPages, n)
}

// stageRuns cuts missing logical-block runs into chunks and stages them on
// the tenant's lane. Hole blocks are zero-fill: a read inserts them
// immediately, no device work; a prefetch leaves them alone.
func (v *VFS) stageRuns(tl *simtime.Timeline, tenant int, f *File, runs []bitmap.Run,
	pend *ringPending, wg *sync.WaitGroup, prefetch bool) {
	f.eachChunk(runs, func(c chunk) bool {
		if c.bytes == 0 {
			if !prefetch {
				f.fc.InsertRange(tl, c.lo, c.lo+c.blocks,
					pagecache.InsertOptions{MarkerAt: -1, Tenant: tenant})
			}
			return true
		}
		wg.Add(1)
		tag := ringChunkPool.Get().(*ringChunk)
		*tag = ringChunk{
			pend: pend, wg: wg, f: f,
			lo: c.lo, blocks: c.blocks, tenant: tenant, prefetch: prefetch,
		}
		v.lanes.Stage(blockdev.LaneRequest{
			Tenant:   tenant,
			Op:       blockdev.OpRead,
			Off:      c.devOff,
			Bytes:    c.bytes,
			Prefetch: prefetch,
			Tag:      tag,
		}, tl.Now())
		return true
	})
}

// ringRead services one read SQE: inline cache lookup, staging for the
// missing chunks, and the user-space copy (the data is byte-available
// now; virtually it is readable at the CQE's Done time).
func (v *VFS) ringRead(tl *simtime.Timeline, tenant int, sq *RingSQE,
	pend *ringPending, wg *sync.WaitGroup, sc *readScratch) int64 {
	f := sq.F
	if sq.Off < 0 {
		pend.fail(ErrNegativeOffset, tl.Now())
		return 0
	}
	size := f.ino.Size()
	if len(sq.Buf) == 0 || sq.Off >= size {
		return 0
	}
	n := int64(len(sq.Buf))
	if sq.Off+n > size {
		n = size - sq.Off
	}
	lo, hi := v.blockRange(sq.Off, n)
	sc.res.Tenant = tenant
	f.fc.LookupRangeInto(tl, lo, hi, &sc.res)
	res := &sc.res
	pend.advance(res.ReadyAt)

	if res.PresentCount < hi-lo {
		sc.runs = appendMissingRuns(sc.runs[:0], res.Present, lo)
		v.stageRuns(tl, tenant, f, sc.runs, pend, wg, false)
	}

	pages := hi - lo
	copyStart := tl.Now()
	tl.Advance(simtime.Duration(pages) * v.cfg.Costs.PageCopy)
	telemetry.Current(tl).Child("vfs.copy_out", telemetry.CatCopy, copyStart, tl.Now()).
		Annotate("pages", pages)
	return int64(f.ino.ReadAt(sq.Buf[:n], sq.Off))
}

// ringPrefetch services one prefetch-intent SQE: the limit clamp and
// bitmap fast path of readahead_info, with the device work staged on the
// tenant lane instead of flushed inline. Congestion control is applied at
// admission: a backlogged device drops the intent (N reports 0 admitted),
// exactly as the synchronous prefetch path postpones.
func (v *VFS) ringPrefetch(tl *simtime.Timeline, tenant int, sq *RingSQE,
	pend *ringPending, wg *sync.WaitGroup, sc *readScratch) int64 {
	f := sq.F
	lo, hi := f.prefetchSpan(sq.Off, sq.Len)
	if hi <= lo {
		return 0
	}
	// Shed before any clamping or staging: an intent whose deadline has
	// already passed never touches the device. The full file-clamped
	// request is counted rejected so the requested == admitted + rejected
	// and lib == kernel identities hold page for page, and the CQE carries
	// ErrShed so the library can tell refusal from failure (the breaker
	// ignores sheds).
	if sq.Deadline > 0 && tl.Now() > sq.Deadline {
		preClamp := hi - lo
		v.rec.Add(telemetry.CtrKernelRequestedPages, preClamp)
		v.rec.Add(telemetry.CtrKernelRejectedPages, preClamp)
		v.rec.Add(telemetry.CtrRingShedSQEs, 1)
		v.rec.Add(telemetry.CtrRingShedPrefetchPages, preClamp)
		v.rec.Event(tl.Now(), telemetry.OutcomeShedPrefetch, f.ino.ID(), lo, hi)
		pend.refuse(ErrShed, tl.Now())
		return 0
	}
	// readahead_info's admission, with the request's own length as the
	// override: the whole request, within the byte budget, when the kernel
	// allows overrides.
	hi = f.admitPrefetch(lo, hi, hi-lo)
	granted := hi - lo

	// Per-backend congestion: only the backlog of the backends this
	// range resolves to can postpone it.
	if f.RangeBacklog(tl.Now(), lo, hi) > v.cfg.CongestionLimit {
		return 0
	}
	missing := f.fc.AppendFastMissingRuns(tl, sc.runs[:0], lo, hi)
	sc.runs = missing
	v.stageRuns(tl, tenant, f, missing, pend, wg, true)
	return granted
}
