package crosslib

import (
	"sync"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/predictor"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// File is a CROSS-LIB file descriptor: the kernel descriptor plus the
// user-level prediction and prefetch state (§4.3's "user-level
// file-descriptor structure"). Each descriptor has its own pattern
// detector; descriptors of the same file share the range tree (§4.5's
// file-descriptor prefetching).
type File struct {
	rt *Runtime
	kf *vfs.File
	sf *sharedFile

	predMu sync.Mutex
	pred   *predictor.Predictor

	mu     sync.Mutex
	pos    int64
	closed bool
}

// Open opens an existing file through the runtime.
func (rt *Runtime) Open(tl *simtime.Timeline, name string) (*File, error) {
	kf, err := rt.v.Open(tl, name)
	if err != nil {
		return nil, err
	}
	return rt.wrap(tl, kf, name), nil
}

// Create creates and opens a file through the runtime.
func (rt *Runtime) Create(tl *simtime.Timeline, name string) (*File, error) {
	kf, err := rt.v.Create(tl, name)
	if err != nil {
		return nil, err
	}
	return rt.wrap(tl, kf, name), nil
}

// OpenOrCreate opens name, creating it if missing.
func (rt *Runtime) OpenOrCreate(tl *simtime.Timeline, name string) (*File, error) {
	if f, err := rt.Open(tl, name); err == nil {
		return f, nil
	}
	return rt.Create(tl, name)
}

func (rt *Runtime) wrap(tl *simtime.Timeline, kf *vfs.File, name string) *File {
	f := &File{rt: rt, kf: kf}
	if !rt.opt.Enabled {
		return f
	}
	f.sf = rt.shared(kf, name)
	f.pred = predictor.New(predictor.DefaultConfig())
	f.sf.touch(tl.Now())

	root := rt.tr.Root(tl, telemetry.OpOpenPrefetch, kf.Inode().ID())
	switch {
	case rt.opt.FetchAll:
		// Idealistic policy: prefetch the entire file on open (§5.2).
		f.ensureFetchAll(tl, 1)
	case rt.opt.OptLimits && rt.opt.Predict:
		// Aggressive optimistic open: assume sequential, prefetch the
		// first OpenPrefetchBytes before the pattern is known (§4.6).
		if rt.freeFrac() > rt.opt.HighWaterFrac && kf.Size() > 0 {
			rt.openPrefetches.Add(1)
			f.prefetchAsync(tl, 0, rt.opt.OpenPrefetchBytes/rt.v.BlockSize(), false)
		}
	}
	root.Finish(tl)
	return f
}

// Close releases the descriptor: the kernel descriptor is closed and,
// when this was the last descriptor of its inode, the shared per-inode
// state (range tree, activity tracking) is dropped from the runtime.
// Without this, long-running processes that churn through files leak one
// sharedFile plus one kernel descriptor per open, and the eviction pass
// keeps scanning files nobody will touch again. Idempotent.
//
// Safe with respect to background prefetch: the worker pool executes jobs
// inline on the submitting thread, so no job can still reference sf.kf
// after every opener has returned.
func (f *File) Close(tl *simtime.Timeline) error {
	f.mu.Lock()
	closed := f.closed
	f.closed = true
	f.mu.Unlock()
	if closed {
		return nil
	}
	sf := f.sf
	if sf == nil {
		// Disabled runtime: plain kernel descriptor.
		f.kf.Close(tl)
		return nil
	}
	rt := f.rt
	if rt.opt.BatchIntents {
		// Closing is a library-level unplug: parked intents flush rather
		// than vanish with their requested bits still set in the tree.
		f.flushIntents(tl)
	}
	fs := rt.fileShard(sf.inoID)
	fs.mu.Lock()
	sf.refs--
	last := sf.refs == 0
	if last {
		delete(fs.m, sf.inoID)
	}
	fs.mu.Unlock()
	// sf.kf is the descriptor background work borrows; it is closed only
	// by the last closer, which may not be the descriptor that donated it.
	if f.kf != sf.kf {
		f.kf.Close(tl)
	}
	if last {
		sf.kf.Close(tl)
	}
	return nil
}

// Kernel exposes the underlying kernel descriptor (APPonly workloads issue
// their own readahead/fadvise through it).
func (f *File) Kernel() *vfs.File { return f.kf }

// Size reports the file size.
func (f *File) Size() int64 { return f.kf.Size() }

// Predictor exposes the descriptor's pattern detector for telemetry.
func (f *File) Predictor() *predictor.Predictor { return f.pred }

// ReadAt reads through the shim: the predictor observes the access, the
// runtime prefetches ahead when warranted, and the user-level bitmap is
// updated with the pages the read faulted in.
func (f *File) ReadAt(tl *simtime.Timeline, dst []byte, off int64) (int, error) {
	o := f.rt.opt
	root := f.rt.tr.Root(tl, telemetry.OpRead, f.kf.Inode().ID())
	defer root.Finish(tl)
	root.Annotate("off", off)
	root.Annotate("bytes", int64(len(dst)))
	if !o.Enabled {
		return f.kf.ReadAt(tl, dst, off)
	}
	tl.Advance(f.rt.v.Config().Costs.LibOverhead)
	bs := f.rt.v.BlockSize()
	lo := off / bs
	hi := (off + int64(len(dst)) + bs - 1) / bs

	op := f.observeAccess(tl, lo, hi)

	n, err := f.kf.ReadAt(tl, dst, off)
	f.sf.tree.MarkCached(tl, lo, hi)
	f.sf.touch(tl.Now())
	f.rt.maybeEvict(tl, op)
	return n, err
}

// observeAccess runs the library-side read pre-work shared by ReadAt and
// the ring submission path (Ring.Submit): flush-on-read of overlapping
// parked intents, predictor-driven prefetch, and the FetchAll policy.
// Returns the op tick for the caller's maybeEvict.
func (f *File) observeAccess(tl *simtime.Timeline, lo, hi int64) int64 {
	o := f.rt.opt
	if o.BatchIntents {
		// Flush-on-read: intents parked before this access flush now if
		// the read wants any of their pages — checked before the
		// predictor runs, so an intent this access parks keeps
		// accumulating instead of flushing back out immediately.
		f.maybeFlushIntents(tl, lo, hi)
	}

	op := f.rt.tick()
	switch {
	case o.Predict && f.sf.ens != nil:
		// Ensemble path: all arms score the access in shadow mode; only
		// the live arm's candidates reach the prefetch path.
		f.ensembleObserve(tl, lo, hi, true)
	case o.Predict && f.pred != nil:
		f.predMu.Lock()
		skipped := f.pred.Observe(lo, hi-lo)
		plo, pn := f.pred.Next()
		f.predMu.Unlock()
		switch {
		case pn > 0:
			f.prefetchAsync(tl, plo, pn, false)
		case o.CoveragePrefetch:
			f.coveragePrefetch(tl, lo)
		case skipped:
			// Steady-state throttle: the predictor deliberately examined
			// nothing, so no new intent was formed this access.
			f.rt.rec.Event(tl.Now(), telemetry.OutcomeThrottledSteadyState,
				f.sf.inoID, lo, lo)
		}
	}
	if o.FetchAll {
		f.ensureFetchAll(tl, op)
	}
	return op
}

// maxLiveCandidates bounds how many live-arm candidates one observation
// may turn into prefetch intents (fixed so the hot path copies them out
// of the ensemble's reused buffer without allocating).
const maxLiveCandidates = 4

// ensembleObserve feeds one access through the per-inode competing-
// predictor ensemble: every arm scores it in shadow mode (booked into
// the telemetry counters and the per-(inode,arm) scorecards), and —
// when issue is set — the live arm's candidates become real prefetch
// intents tagged with the arm for the per-arm effectiveness partition.
func (f *File) ensembleObserve(tl *simtime.Timeline, lo, hi int64, issue bool) {
	rt := f.rt
	sf := f.sf
	blocks := hi - lo
	sf.ensMu.Lock()
	res := sf.ens.Observe(lo, blocks)
	live := res.Live
	issued, hits, expired := res.Issued, res.Hit, res.Expired
	promoted, oldArm, newArm := res.Promoted, res.OldArm, res.NewArm
	var cands [maxLiveCandidates]predictor.Candidate
	n := copy(cands[:], res.Candidates)
	sf.ensMu.Unlock()

	now := tl.Now()
	var sumI, sumH, sumX int64
	for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
		sumI += issued[a]
		sumH += hits[a]
		sumX += expired[a]
		rt.score.ArmIssued(now, sf.inoID, a, issued[a])
		rt.score.ArmUsed(now, sf.inoID, a, hits[a])
		rt.score.ArmWasted(now, sf.inoID, a, expired[a])
		rt.score.ArmRead(now, sf.inoID, a, blocks, hits[a])
	}
	if sumI > 0 {
		rt.rec.Add(telemetry.CtrPredShadowIssuedPages, sumI)
	}
	if sumH > 0 {
		rt.rec.Add(telemetry.CtrPredShadowHitPages, sumH)
	}
	if sumX > 0 {
		rt.rec.Add(telemetry.CtrPredShadowExpiredPages, sumX)
	}
	if promoted {
		rt.armPromotions.Add(1)
		rt.rec.Add(telemetry.CtrPredArmPromotions, 1)
		rt.rec.Event(now, telemetry.OutcomeArmPromoted,
			sf.inoID, int64(oldArm), int64(newArm))
	}
	if !issue {
		return
	}
	if n == 0 {
		if rt.opt.CoveragePrefetch {
			f.coveragePrefetch(tl, lo)
		}
		return
	}
	for i := 0; i < n; i++ {
		f.prefetchAsyncArm(tl, cands[i].Lo, cands[i].Blocks, false, live)
	}
}

// Read reads at the descriptor's position, advancing it.
func (f *File) Read(tl *simtime.Timeline, dst []byte) (int, error) {
	f.mu.Lock()
	off := f.pos
	f.mu.Unlock()
	n, err := f.ReadAt(tl, dst, off)
	f.mu.Lock()
	f.pos = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// SeekTo sets the descriptor position.
func (f *File) SeekTo(off int64) {
	f.mu.Lock()
	f.pos = off
	f.mu.Unlock()
}

// WriteAt writes through the shim. Writes also feed the pattern detector
// (the paper observes patterns on reads and writes) and populate the
// user-level bitmap, since written pages are cached.
func (f *File) WriteAt(tl *simtime.Timeline, data []byte, off int64) (int, error) {
	o := f.rt.opt
	root := f.rt.tr.Root(tl, telemetry.OpWrite, f.kf.Inode().ID())
	defer root.Finish(tl)
	root.Annotate("off", off)
	root.Annotate("bytes", int64(len(data)))
	if !o.Enabled {
		return f.kf.WriteAt(tl, data, off)
	}
	tl.Advance(f.rt.v.Config().Costs.LibOverhead)
	bs := f.rt.v.BlockSize()
	lo := off / bs
	hi := (off + int64(len(data)) + bs - 1) / bs
	switch {
	case o.Predict && f.sf.ens != nil:
		// Writes feed the ensemble's pattern state (and shadow books)
		// without issuing prefetch, mirroring the counter-only path.
		f.ensembleObserve(tl, lo, hi, false)
	case o.Predict && f.pred != nil:
		f.predMu.Lock()
		f.pred.Observe(lo, hi-lo)
		f.predMu.Unlock()
	}
	op := f.rt.tick()
	n, err := f.kf.WriteAt(tl, data, off)
	f.sf.tree.MarkCached(tl, lo, hi)
	if o.BatchIntents {
		// The write just cached [lo, hi): any parked intent overlapping
		// it is (partially) satisfied and must not ride the next vectored
		// flush — re-requesting written pages wastes the crossing the
		// aggregator exists to save.
		f.sf.invalidateIntents(lo, hi)
	}
	f.sf.touch(tl.Now())
	f.rt.maybeEvict(tl, op)
	return n, err
}

// Append writes at EOF.
func (f *File) Append(tl *simtime.Timeline, data []byte) (int, error) {
	return f.WriteAt(tl, data, f.kf.Size())
}

// Fsync flushes dirty pages.
func (f *File) Fsync(tl *simtime.Timeline) error {
	root := f.rt.tr.Root(tl, telemetry.OpFsync, f.kf.Inode().ID())
	defer root.Finish(tl)
	return f.kf.Fsync(tl)
}

// prefetchAsync clamps a prefetch intent [lo, lo+blocks) by the memory
// budget, drops the already-cached/in-flight portion using the user-level
// bitmap (saving kernel crossings), and hands the rest to a background
// helper thread that issues readahead_info. coverage tags the intent as
// coverage-policy prefetch for the per-origin effectiveness partition
// (intents parked in the aggregator lose the tag and book as crossos —
// the vectored crossing merges intents of both policies).
func (f *File) prefetchAsync(tl *simtime.Timeline, lo, blocks int64, coverage bool) {
	f.prefetchAsyncArm(tl, lo, blocks, coverage, telemetry.ArmNone)
}

// prefetchAsyncArm is prefetchAsync with the intent tagged by the
// predictor arm that drove it (ArmNone when none did); the tag rides the
// kernel request onto the inserted pages, partitioning real prefetch
// effectiveness per arm. Like the coverage tag, it is lost when the
// intent parks in the aggregator.
func (f *File) prefetchAsyncArm(tl *simtime.Timeline, lo, blocks int64, coverage bool, arm telemetry.Arm) {
	rt := f.rt
	o := rt.opt
	bs := rt.v.BlockSize()

	fileBlocks := f.kf.Inode().Blocks()
	if lo < 0 {
		lo = 0
	}
	if lo+blocks > fileBlocks {
		blocks = fileBlocks - lo
	}
	if blocks <= 0 {
		return
	}

	// Circuit breaker: a file whose background prefetches keep failing
	// is left to demand reads until the breaker half-opens again.
	if o.Visibility && o.BreakerThreshold > 0 && !f.sf.brk.allow(tl.Now()) {
		rt.droppedBreaker.Add(1)
		telemetry.Current(tl).Annotate("breaker_open", 1)
		rt.rec.Event(tl.Now(), telemetry.OutcomeDroppedBreakerOpen,
			f.sf.inoID, lo, lo+blocks)
		return
	}

	// Memory budget policy (§4.6): halt entirely below the low
	// watermark; below the high watermark, stay within the kernel's
	// static window even when opt would allow more. The FetchAll policy
	// is deliberately memory-insensitive (Table 2).
	if !o.FetchAll && (o.OptLimits || o.AggressiveEvict || o.CoveragePrefetch) {
		free := rt.freeFrac()
		if free < o.LowWaterFrac {
			rt.rec.Event(tl.Now(), telemetry.OutcomeDroppedLowMemory,
				f.sf.inoID, lo, lo+blocks)
			return
		}
		if free < o.HighWaterFrac {
			if max := rt.v.Config().RA.MaxPages; blocks > max {
				blocks = max
			}
		}
	}
	if max := o.MaxPrefetchBytes / bs; blocks > max {
		blocks = max
	}

	hi := lo + blocks
	var runBuf [4]bitmap.Run
	runs := f.sf.tree.AppendNeedsPrefetch(tl, runBuf[:0], lo, hi)
	if len(runs) == 0 {
		// Everything already cached or in flight: the prefetch system
		// call is elided — the core saving of cache visibility (§4.2).
		rt.savedPrefetch.Add(1)
		rt.rec.Event(tl.Now(), telemetry.OutcomeSavedByBitmap, f.sf.inoID, lo, hi)
		return
	}
	// Batching hysteresis: a window whose uncovered tail is still tiny is
	// not worth a kernel crossing yet; wait for the intent to accumulate.
	var missing int64
	for _, r := range runs {
		missing += r.Blocks()
	}
	if threshold := min64(16, blocks/4); missing < threshold {
		if o.BatchIntents && o.Visibility {
			// Park the small intent instead of dropping it: the runs keep
			// their requested bits (later windows dedupe against them for
			// free) and wait in the per-file aggregator for one vectored
			// readahead_info crossing.
			f.deferIntent(tl, runs)
			return
		}
		for _, r := range runs {
			f.sf.tree.ClearRequested(tl, r.Lo, r.Hi)
		}
		rt.rec.Event(tl.Now(), telemetry.OutcomeThrottledBatching,
			f.sf.inoID, lo, lo+missing)
		return
	}

	now := tl.Now()
	// Helper saturation: when every background worker is booked solid,
	// a queued prefetch would complete too late to matter but would
	// still burn device bandwidth — drop the intent instead (a bounded
	// prefetch queue, as a real helper-thread pool would have).
	if rt.workers.EarliestFree() > now.Add(workerQueueBound) {
		for _, r := range runs {
			f.sf.tree.ClearRequested(tl, r.Lo, r.Hi)
		}
		rt.droppedPrefetch.Add(1)
		rt.rec.Event(now, telemetry.OutcomeDroppedQueueFull, f.sf.inoID, lo, hi)
		return
	}
	sf := f.sf
	kf := f.kf
	rt.workers.Run(now, func(wtl *simtime.Timeline) {
		root := rt.tr.Root(wtl, telemetry.OpBgPrefetch, sf.inoID)
		for i, r := range runs {
			if !f.issuePrefetch(wtl, kf, sf, r.Lo, r.Hi, coverage, arm) {
				// Definitive device failure: the failing call fed the
				// breaker once for this job. Issuing the remaining runs
				// would feed it once per range — a single bad multi-run
				// job could trip it alone — and burn crossings against a
				// device that just failed definitively. Give the unissued
				// runs their requested bits back instead.
				for _, rest := range runs[i+1:] {
					sf.tree.ClearRequested(wtl, rest.Lo, rest.Hi)
				}
				break
			}
		}
		root.Finish(wtl)
	})
}

// workerQueueBound is how far ahead of the submitting thread the helper
// pool may be booked before new prefetch intents are dropped.
const workerQueueBound = 2 * simtime.Millisecond

// deferIntent parks small prefetch runs in the per-file aggregator
// (Options.BatchIntents): the runs keep their requested bits — the
// shared tree dedupes follow-up intents against them — and accumulate
// until a flush sends the whole set to the kernel as one vectored
// readahead_info crossing. The aggregate flushes itself at the size
// bound; reads that overlap a parked run and explicit FlushIntents
// calls flush it sooner.
func (f *File) deferIntent(tl *simtime.Timeline, runs []bitmap.Run) {
	rt := f.rt
	sf := f.sf
	sf.aggMu.Lock()
	for _, r := range runs {
		sf.agg = mergeRun(sf.agg, r)
	}
	sf.aggPages = 0
	for _, r := range sf.agg {
		sf.aggPages += r.Blocks()
	}
	full := sf.aggPages >= rt.opt.BatchFlushPages
	sf.aggMu.Unlock()
	rt.batchedIntents.Add(1)
	rt.rec.Event(tl.Now(), telemetry.OutcomeBatchedIntent,
		sf.inoID, runs[0].Lo, runs[len(runs)-1].Hi)
	if full {
		f.flushIntents(tl)
	}
}

// invalidateIntents removes [lo, hi) from the parked intent aggregator.
// The tree's requested bits for the overlap are already gone (the caller
// marked the pages cached), so only the aggregator's run list needs
// reconciling; runs straddling the boundary are split and the remainder
// stays parked.
func (sf *sharedFile) invalidateIntents(lo, hi int64) {
	sf.aggMu.Lock()
	defer sf.aggMu.Unlock()
	if len(sf.agg) == 0 {
		return
	}
	out := make([]bitmap.Run, 0, len(sf.agg)+1)
	for _, r := range sf.agg {
		if r.Hi <= lo || hi <= r.Lo {
			out = append(out, r)
			continue
		}
		if r.Lo < lo {
			out = append(out, bitmap.Run{Lo: r.Lo, Hi: lo})
		}
		if hi < r.Hi {
			out = append(out, bitmap.Run{Lo: hi, Hi: r.Hi})
		}
	}
	if len(out) == 0 {
		out = nil
	}
	sf.agg = out
	sf.aggPages = 0
	for _, r := range sf.agg {
		sf.aggPages += r.Blocks()
	}
}

// maybeFlushIntents flushes the aggregator when the demand read
// [lo, hi) overlaps a parked run: those pages are wanted now, so the
// batch rides this read instead of waiting for the size bound.
func (f *File) maybeFlushIntents(tl *simtime.Timeline, lo, hi int64) {
	sf := f.sf
	sf.aggMu.Lock()
	overlap := false
	for _, r := range sf.agg {
		if r.Lo < hi && lo < r.Hi {
			overlap = true
			break
		}
	}
	sf.aggMu.Unlock()
	if overlap {
		f.flushIntents(tl)
	}
}

// FlushIntents drains the per-file intent aggregator immediately — the
// library-level unplug, for callers that know a batch should go now
// (end of a request, a barrier between workload phases). No-op when
// batching is off or nothing is parked.
func (f *File) FlushIntents(tl *simtime.Timeline) {
	if f.sf == nil || !f.rt.opt.BatchIntents {
		return
	}
	f.flushIntents(tl)
}

// flushIntents drains the aggregator and issues the parked runs as one
// vectored readahead_info crossing on a background helper. The tail
// mirrors prefetchAsync: a saturated helper pool drops the batch (and
// gives the requested bits back) rather than queueing device work that
// would complete too late to matter.
func (f *File) flushIntents(tl *simtime.Timeline) {
	rt := f.rt
	sf := f.sf
	sf.aggMu.Lock()
	runs := sf.agg
	sf.agg = nil
	sf.aggPages = 0
	sf.aggMu.Unlock()
	if len(runs) == 0 {
		return
	}
	now := tl.Now()
	lo, hi := runs[0].Lo, runs[len(runs)-1].Hi
	if rt.workers.EarliestFree() > now.Add(workerQueueBound) {
		for _, r := range runs {
			sf.tree.ClearRequested(tl, r.Lo, r.Hi)
		}
		rt.droppedPrefetch.Add(1)
		rt.rec.Event(now, telemetry.OutcomeDroppedQueueFull, sf.inoID, lo, hi)
		return
	}
	kf := f.kf
	rt.workers.Run(now, func(wtl *simtime.Timeline) {
		root := rt.tr.Root(wtl, telemetry.OpBgPrefetch, sf.inoID)
		f.issueVectored(wtl, kf, sf, runs)
		root.Finish(wtl)
	})
}

// issueVectored performs one vectored readahead_info crossing for the
// aggregated runs and reconciles the user-level tree per range. One
// crossing, one kernel-side submission plug across every range — the
// amortization the aggregator exists for. Transient device faults
// retry the whole vector (ranges already granted are absorbed by the
// kernel's bitmap on re-issue); a definitive failure gives every range
// back and feeds the breaker.
func (f *File) issueVectored(wtl *simtime.Timeline, kf *vfs.File, sf *sharedFile, runs []bitmap.Run) {
	rt := f.rt
	o := rt.opt
	bs := rt.v.BlockSize()

	hullLo, hullHi := runs[0].Lo, runs[len(runs)-1].Hi
	rt.vectoredFlushes.Add(1)
	rt.rec.Event(wtl.Now(), telemetry.OutcomeIssued, sf.inoID, hullLo, hullHi)

	ranges := make([]vfs.Range, len(runs))
	var total, maxRun int64
	for i, r := range runs {
		ranges[i] = vfs.Range{Offset: r.Lo * bs, Bytes: r.Blocks() * bs}
		total += r.Blocks()
		if r.Blocks() > maxRun {
			maxRun = r.Blocks()
		}
	}
	req := vfs.CacheInfoRequest{
		Ranges:   ranges,
		BitmapLo: hullLo,
		BitmapHi: hullHi,
	}
	if o.OptLimits {
		// The per-call limit applies per range; the largest run is the
		// only one that needs the override.
		req.LimitOverride = maxRun
	}

	snap := windowPool.Get().(*bitmap.Window)
	defer windowPool.Put(snap)
	for attempt := 0; ; {
		rt.rec.Add(telemetry.CtrLibIssuedPages, total)
		info := kf.ReadaheadInfo(wtl, req, snap)
		rt.prefetchCalls.Add(1)
		rt.prefetchedPgs.Add(info.PrefetchedPages)

		// Reconcile each range against the kernel's reply: the exported
		// bitmap is truth for the granted prefix; a clamped remainder
		// gives its requested bits back (one window per intent, exactly
		// as the scalar path behaves without opt).
		for i, r := range runs {
			g := int64(0)
			if i < len(info.Granted) {
				g = info.Granted[i]
			}
			if g > 0 {
				sf.tree.ImportBitmap(wtl, snap, r.Lo, min64(r.Lo+g, r.Hi))
			}
			if r.Lo+g < r.Hi {
				sf.tree.ClearRequested(wtl, r.Lo+g, r.Hi)
			}
		}

		if f.retryPrefetch(wtl, sf, info, &attempt, hullLo, hullHi) {
			continue
		}
		if info.PrefetchErr != nil {
			for _, r := range runs {
				sf.tree.ClearRequested(wtl, r.Lo, r.Hi)
			}
		}
		return
	}
}

// retryPrefetch is the shared tail of a kernel prefetch call for [lo, hi):
// it feeds the circuit breaker and decides whether to re-issue. A
// transient device error, while *attempt is within the retry budget, backs
// off on the worker timeline (exponential, seeded jitter) and reports
// true. Any other error is definitive: it feeds the breaker a failure —
// the caller gives the range back, demand reads still cover the data. Only
// device-backed successes feed it a success: a call satisfied entirely
// from cache proves nothing about the device and must not reset (or
// close) the breaker.
func (f *File) retryPrefetch(wtl *simtime.Timeline, sf *sharedFile, info vfs.CacheInfo, attempt *int, lo, hi int64) bool {
	rt := f.rt
	switch err := info.PrefetchErr; {
	case err == nil:
		if info.PrefetchedPages > 0 {
			f.noteFault(wtl, sf, false)
		}
		return false
	case !blockdev.IsTransient(err) || *attempt >= rt.opt.RetryMax:
		f.noteFault(wtl, sf, true)
		return false
	}
	*attempt++
	backoffStart := wtl.Now()
	wtl.WaitUntil(backoffStart.Add(retryDelay(rt.opt, sf.inoID, lo, *attempt)), simtime.WaitIO)
	telemetry.Current(wtl).Child("lib.retry_backoff", telemetry.CatRetry,
		backoffStart, wtl.Now()).Annotate("attempt", int64(*attempt))
	rt.prefetchRetries.Add(1)
	rt.rec.Add(telemetry.CtrLibPrefetchRetries, 1)
	rt.rec.Event(wtl.Now(), telemetry.OutcomeRetriedTransient, sf.inoID, lo, hi)
	return true
}

// windowPool recycles the readahead_info export snapshots: a call fills
// the window it asked for and the range tree has imported it by the time
// the call's helper returns, so the words are reused call after call.
var windowPool = sync.Pool{New: func() any { return new(bitmap.Window) }}

// mergeRun inserts r into a sorted, disjoint run list, coalescing
// overlapping or adjacent runs.
func mergeRun(runs []bitmap.Run, r bitmap.Run) []bitmap.Run {
	i := 0
	for i < len(runs) && runs[i].Hi < r.Lo {
		i++
	}
	j := i
	for j < len(runs) && runs[j].Lo <= r.Hi {
		if runs[j].Lo < r.Lo {
			r.Lo = runs[j].Lo
		}
		if runs[j].Hi > r.Hi {
			r.Hi = runs[j].Hi
		}
		j++
	}
	if i == j {
		runs = append(runs, bitmap.Run{})
		copy(runs[i+1:], runs[i:])
		runs[i] = r
		return runs
	}
	runs[i] = r
	return append(runs[:i+1], runs[j:]...)
}

// issuePrefetch performs one kernel prefetch for [lo, hi) on the worker
// timeline and reconciles the user-level bitmap with the kernel's reply.
// Reports false on a definitive device failure (the breaker has been fed
// exactly once and [pos, hi)'s requested bits given back) so a caller
// issuing several runs stops instead of re-proving the failure per run.
// coverage and arm propagate the intent's policy tags into the kernel
// request.
func (f *File) issuePrefetch(wtl *simtime.Timeline, kf *vfs.File, sf *sharedFile, lo, hi int64, coverage bool, arm telemetry.Arm) bool {
	rt := f.rt
	o := rt.opt
	bs := rt.v.BlockSize()

	rt.rec.Event(wtl.Now(), telemetry.OutcomeIssued, sf.inoID, lo, hi)

	if !o.Visibility {
		// Degraded mode: blind readahead(2), no state import — device
		// errors are invisible here, so no retry or breaker either.
		kf.Readahead(wtl, lo*bs, (hi-lo)*bs)
		rt.prefetchCalls.Add(1)
		sf.tree.MarkCached(wtl, lo, min64(hi, lo+rt.v.Config().RA.MaxPages))
		return true
	}

	snap := windowPool.Get().(*bitmap.Window)
	defer windowPool.Put(snap)
	attempt := 0
	for pos := lo; pos < hi; {
		req := vfs.CacheInfoRequest{
			Offset:   pos * bs,
			Bytes:    (hi - pos) * bs,
			BitmapLo: pos,
			BitmapHi: hi,
			Coverage: coverage,
			Arm:      arm,
		}
		if o.OptLimits {
			req.LimitOverride = hi - pos
		}
		rt.rec.Add(telemetry.CtrLibIssuedPages, hi-pos)
		info := kf.ReadaheadInfo(wtl, req, snap)
		rt.prefetchCalls.Add(1)
		rt.prefetchedPgs.Add(info.PrefetchedPages)

		// Reconcile: the exported bitmap is the kernel's truth for
		// [pos, pos+granted) — including prefetched pages, minus
		// anything congestion control postponed or a device fault
		// aborted (both stay missing in the tree and can be retried).
		granted := info.RequestedPages
		if granted > 0 {
			sf.tree.ImportBitmap(wtl, snap, pos, pos+granted)
		}

		if f.retryPrefetch(wtl, sf, info, &attempt, pos, hi) {
			continue // re-issue the still-missing remainder
		}
		if info.PrefetchErr != nil {
			sf.tree.ClearRequested(wtl, pos, hi)
			return false
		}

		if granted <= 0 {
			sf.tree.ClearRequested(wtl, pos, hi)
			break
		}
		pos += granted

		if !o.OptLimits {
			// Without limit override the kernel clamps each call to the
			// static window; issuing a storm of calls to get around it
			// is exactly what the paper's library does NOT do — one
			// window per intent.
			sf.tree.ClearRequested(wtl, pos, hi)
			break
		}
	}
	return true
}

// libRetryDelayCap bounds a single transient-retry backoff: the
// doubling saturates here instead of overflowing (or stalling a worker
// for unbounded virtual time) when a caller configures a deep retry
// budget. A RetryBase above the cap is honored as configured.
const libRetryDelayCap = 10 * simtime.Millisecond

// retryDelay is the deterministic backoff before transient-fault retry
// n (1-based): RetryBase<<(n-1) saturating at libRetryDelayCap,
// stretched by seeded jitter so retries across files decorrelate
// without wall-clock randomness.
func retryDelay(o Options, ino, lo int64, attempt int) simtime.Duration {
	capD := libRetryDelayCap
	if o.RetryBase > capD {
		capD = o.RetryBase
	}
	d := o.RetryBase
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d <= 0 || d >= capD {
			d = capD
			break
		}
	}
	if o.RetryJitterFrac > 0 {
		h := faultinject.Hash(uint64(o.FaultSeed), uint64(ino), uint64(lo), uint64(attempt))
		frac := float64(h>>11) / float64(1<<53) // [0, 1)
		d += simtime.Duration(float64(d) * o.RetryJitterFrac * frac)
	}
	return d
}

// noteFault feeds one definitive background-prefetch outcome to the
// file's circuit breaker and records trips/recoveries.
func (f *File) noteFault(wtl *simtime.Timeline, sf *sharedFile, failed bool) {
	o := f.rt.opt
	if o.BreakerThreshold <= 0 {
		return
	}
	now := wtl.Now()
	if failed {
		if sf.brk.failure(now, o.BreakerThreshold, o.BreakerCooloff) {
			f.rt.breakerTrips.Add(1)
			f.rt.rec.Add(telemetry.CtrLibBreakerTrips, 1)
			f.rt.rec.Event(now, telemetry.OutcomeBreakerTripped, sf.inoID, 0, 0)
		}
		return
	}
	if sf.brk.success() {
		f.rt.breakerRecovered.Add(1)
		f.rt.rec.Add(telemetry.CtrLibBreakerRecoveries, 1)
		f.rt.rec.Event(now, telemetry.OutcomeBreakerRecovered, sf.inoID, 0, 0)
	}
}

// coveragePrefetch is the budget-driven aggressive population policy
// (§4.6): when the pattern is random but free memory remains above the
// watermarks, prefetch the missing blocks of a chunk starting at the
// access point. Random readers of a region thereby converge on full
// residency while memory lasts, eliminating compulsory misses that
// pattern-window prefetching can never cover.
func (f *File) coveragePrefetch(tl *simtime.Timeline, lo int64) {
	rt := f.rt
	o := rt.opt
	free := rt.freeFrac()
	if free < o.LowWaterFrac {
		rt.rec.Event(tl.Now(), telemetry.OutcomeDroppedLowMemory,
			f.sf.inoID, lo, lo)
		return
	}
	chunk := int64(64) // 256KB of 4KB blocks without opt
	if o.OptLimits && free > o.HighWaterFrac {
		chunk = 1024 // 4MB when memory is plentiful
	}
	f.prefetchAsync(tl, lo, chunk, true)
}

// ensureFetchAll kicks off (once) whole-file prefetch jobs and, on later
// calls, re-issues prefetch for blocks that eviction took away.
func (f *File) ensureFetchAll(tl *simtime.Timeline, op int64) {
	sf := f.sf
	if sf.fetchAll.CompareAndSwap(false, true) {
		f.prefetchAsync(tl, 0, f.kf.Inode().Blocks(), false)
		return
	}
	// Periodically repair holes (monitoring missing blocks via bitmaps).
	if op%1024 == 0 {
		f.prefetchAsync(tl, 0, f.kf.Inode().Blocks(), false)
	}
}

// FincorePollStep emulates one step of the APPonly[fincore] baseline
// (Figure 2): a background helper polls fincore over a window of the file
// and issues readahead(2) for the uncached regions it finds. Workloads
// drive it from their read loops.
func (f *File) FincorePollStep(tl *simtime.Timeline, windowBlocks int64) {
	rt := f.rt
	kf := f.kf
	now := tl.Now()
	rt.fincorePolls.Add(1)
	rt.workers.Run(now, func(wtl *simtime.Timeline) {
		root := rt.tr.Root(wtl, telemetry.OpBgPrefetch, kf.Inode().ID())
		fileBlocks := kf.Inode().Blocks()
		if windowBlocks > fileBlocks {
			windowBlocks = fileBlocks
		}
		resident := bitmap.New(0)
		kf.Fincore(wtl, 0, windowBlocks, resident)
		for _, run := range resident.MissingRuns(0, windowBlocks) {
			kf.Readahead(wtl, run.Lo*rt.v.BlockSize(), run.Blocks()*rt.v.BlockSize())
			rt.prefetchCalls.Add(1)
		}
		root.Finish(wtl)
	})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
