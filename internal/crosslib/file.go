package crosslib

import (
	"repro/internal/bitmap"
	"repro/internal/predictor"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// File is a CROSS-LIB file descriptor: the kernel descriptor plus the
// user-level prediction and prefetch state (§4.3's "user-level
// file-descriptor structure"). Each descriptor has its own pattern
// detector; descriptors of the same file share the range tree (§4.5's
// file-descriptor prefetching). The fields past sf are under rt.mu.
type File struct {
	rt *Runtime
	kf *vfs.File
	sf *sharedFile

	pred *predictor.Predictor

	// behind is the drop-behind watermark (dropBehind): the end block of the
	// last unit this descriptor gave back.
	behind int64

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

// openPrefetchBytes is the optimistic prefetch issued on open under the
// aggressive policy (the paper's default).
const openPrefetchBytes = 2 << 20

func (rt *Runtime) wrap(tl *simtime.Timeline, kf *vfs.File, name string) *File {
	f := &File{rt: rt, kf: kf}
	if !rt.opt.Enabled {
		return f
	}
	f.sf = rt.shared(kf, name)
	f.pred = predictor.New(predictor.DefaultConfig())
	rt.touch(f.sf, tl.Now())

	root := rt.tr.Root(tl, telemetry.OpOpenPrefetch, kf.Inode().ID())
	switch {
	case rt.opt.FetchAll:
		// Idealistic policy: prefetch the entire file on open (§5.2).
		f.ensureFetchAll(tl, 1)
	case rt.opt.OptLimits && rt.opt.Predict:
		// Aggressive optimistic open: assume sequential, prefetch the
		// first openPrefetchBytes before the pattern is known (§4.6).
		blocks := openPrefetchBytes / rt.v.BlockSize()
		if kf.Size() > 0 && rt.budgetGate(tl, f.sf, 0, blocks) == budgetAggressive {
			rt.openPrefetches.Add(1)
			f.prefetchAsync(tl, 0, blocks, budgetAggressive, false)
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
	rt, sf := f.rt, f.sf
	rt.mu.Lock()
	if f.closed {
		rt.mu.Unlock()
		return nil
	}
	f.closed = true
	last := false
	if sf != nil {
		sf.refs--
		if last = sf.refs == 0; last {
			delete(rt.files, sf.inoID)
		}
	}
	rt.mu.Unlock()
	if sf == nil {
		// Disabled runtime: plain kernel descriptor.
		f.kf.Close(tl)
		return nil
	}
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

// Kernel exposes the underlying kernel descriptor.
func (f *File) Kernel() *vfs.File { return f.kf }

// Readahead is readahead(2) on the kernel descriptor: APPonly's own
// prefetch. It passes through under a root span, so a traced run accounts
// the device pages it reads, and costs nothing beyond the syscall.
func (f *File) Readahead(tl *simtime.Timeline, off, nbytes int64) int64 {
	root := f.rt.tr.Root(tl, telemetry.OpHint, f.kf.Inode().ID())
	defer root.Finish(tl)
	return f.kf.Readahead(tl, off, nbytes)
}

// Fadvise is fadvise(2) on the kernel descriptor, passed through like
// Readahead.
func (f *File) Fadvise(tl *simtime.Timeline, adv vfs.Advice, off, nbytes int64) {
	root := f.rt.tr.Root(tl, telemetry.OpHint, f.kf.Inode().ID())
	defer root.Finish(tl)
	f.kf.Fadvise(tl, adv, off, nbytes)
}

// Size reports the file size.
func (f *File) Size() int64 { return f.kf.Size() }

// Predictor exposes the descriptor's pattern detector for telemetry.
func (f *File) Predictor() *predictor.Predictor { return f.pred }

// ReadAt reads through the shim: the predictor observes the access, the
// runtime prefetches ahead when warranted, and the user-level bitmap is
// updated with the pages the read faulted in. A read at a negative offset
// names no byte: it goes straight to the kernel, which refuses it with
// vfs.ErrNegativeOffset, and trains, prefetches and marks nothing.
func (f *File) ReadAt(tl *simtime.Timeline, dst []byte, off int64) (int, error) {
	o := f.rt.opt
	root := f.rt.tr.Root(tl, telemetry.OpRead, f.kf.Inode().ID())
	defer root.Finish(tl)
	root.Annotate("off", off)
	root.Annotate("bytes", int64(len(dst)))
	if !o.Enabled || off < 0 {
		return f.kf.ReadAt(tl, dst, off)
	}
	tl.Advance(f.rt.v.Config().Costs.LibOverhead)
	bs := f.rt.v.BlockSize()
	lo := off / bs
	hi := (off + int64(len(dst)) + bs - 1) / bs

	op, full := f.observeAccess(tl, lo, hi)

	n, err := f.kf.ReadAt(tl, dst, off)
	f.sf.markRead(tl, off, int64(n), bs, full)
	if n > 0 {
		f.dropBehind(tl, lo)
	}
	f.rt.touch(f.sf, tl.Now())
	f.rt.maybeEvict(tl, op)
	return n, err
}

// markRead records the blocks a read of n bytes at off brought in as
// cached: what arrived, not what the buffer could have held. A read cut
// short at EOF (or failed, n = 0) must leave no belief bits beyond the
// data — the file may grow, and a stale "cached" bit elides the prefetch
// of a block nobody has read (DESIGN.md §24's dangerous direction). full
// is what the read's own coverage query answered from full nodes
// (observeAccess): on those the mark is a recency stamp (Tree.MarkRead).
func (sf *sharedFile) markRead(tl *simtime.Timeline, off, n, bs int64, full bitmap.Run) {
	if n > 0 {
		sf.tree.MarkRead(tl, off/bs, (off+n+bs-1)/bs, full)
	}
}

// dropBehindUnit is what drop-behind gives back at a time, in blocks: one
// tree-lock pagevec of the page cache, whose write hold fits inside a
// stream's wait for its in-flight prefetch.
const dropBehindUnit = 64

// dropBehind gives back a stream's wake (DESIGN.md §24, Leap's eager drop
// of consumed prefetches): after a read whose first block is lo has been
// marked, the unit that ends one unit behind lo goes on a helper thread,
// the kernel sparing what it has seen re-used (vfs.AdvDontNeedCold). Only
// where nothing can want the wake back: the file is larger than the budget,
// so no pass re-reads it from cache; the descriptor streams forward
// (MostlySequential or better); and it is the file's only one. Each unit
// goes once a pass: the watermark is the end of the last unit dropped, and
// a read behind it — a new pass — resets it. A File is shared between
// threads, so the watermark moves under rt.mu and only the read that moved
// it drops. ReadAt is the one caller: a ring read's settle does not drop,
// because ring readers share the cache with other tenants, and there a
// scan that gives back its wake spends what it frees on prefetch its
// neighbours wait behind (DESIGN.md §24).
func (f *File) dropBehind(tl *simtime.Timeline, lo int64) {
	rt, sf := f.rt, f.sf
	if !rt.opt.AggressiveEvict || f.kf.Inode().Blocks() <= rt.budget() {
		return
	}
	end := (lo/dropBehindUnit - 1) * dropBehindUnit
	rt.mu.Lock()
	drop := false
	switch w := f.behind; {
	case lo < w:
		f.behind = 0
	case end-dropBehindUnit >= w && f.streamState() >= predictor.MostlySequential && sf.refs == 1:
		f.behind, sf.droppedBehind, drop = end, true, true
	}
	rt.mu.Unlock()
	if !drop {
		return
	}
	rt.workers.Run(tl.Now(), func(wtl *simtime.Timeline) {
		freed := rt.dontNeed(wtl, sf, vfs.AdvDontNeedCold, end-dropBehindUnit, end)
		rt.rec.Add(telemetry.CtrLibDroppedBehindPages, freed)
		rt.rec.EventPages(wtl.Now(), telemetry.OutcomeDroppedBehind, sf.inoID, end-dropBehindUnit, end, freed)
	})
}

// streamState is the descriptor's counter classification: its own
// predictor's, or the ensemble's counter arm when the ensemble is on.
// Caller holds rt.mu.
func (f *File) streamState() predictor.State {
	if sf := f.sf; sf.ens != nil {
		return sf.ens.CounterState()
	}
	return f.pred.State()
}

// observeAccess runs the library-side read pre-work shared by ReadAt and
// the ring's read SQE: predictor-driven prefetch and the FetchAll policy.
// Returns the op tick for the caller's maybeEvict, and the part of the
// predictor's or coverage policy's prefetch window that the range tree
// answered from full nodes, for the caller's markRead. It is a value, on
// the caller's stack or in its ringOp, never in the File: descriptors are
// shared between threads.
func (f *File) observeAccess(tl *simtime.Timeline, lo, hi int64) (op int64, full bitmap.Run) {
	o := f.rt.opt
	op = f.rt.tick()
	switch {
	case o.Predict && f.sf.ens != nil:
		// Ensemble path: all arms score the access in shadow mode; only
		// the live arm's candidates reach the prefetch path.
		full = f.ensembleObserve(tl, lo, hi, true)
	case o.Predict && f.pred != nil:
		f.rt.mu.Lock()
		skipped := f.pred.Observe(lo, hi-lo)
		plo, pn := f.pred.Next()
		f.rt.mu.Unlock()
		switch {
		case pn > 0:
			full = f.prefetchAsync(tl, plo, pn, budgetUnasked, false)
		case o.CoveragePrefetch:
			full = f.coveragePrefetch(tl, lo)
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
	return op, full
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
// It returns the full-node part of the last window it queried, as
// observeAccess does.
func (f *File) ensembleObserve(tl *simtime.Timeline, lo, hi int64, issue bool) (full bitmap.Run) {
	rt := f.rt
	sf := f.sf
	blocks := hi - lo
	rt.mu.Lock()
	res := sf.ens.Observe(lo, blocks)
	live := res.Live
	issued, hits, expired := res.Issued, res.Hit, res.Expired
	promoted, oldArm, newArm := res.Promoted, res.OldArm, res.NewArm
	var cands [maxLiveCandidates]predictor.Candidate
	n := copy(cands[:], res.Candidates)
	rt.mu.Unlock()

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
		return full
	}
	if n == 0 {
		if rt.opt.CoveragePrefetch {
			full = f.coveragePrefetch(tl, lo)
		}
		return full
	}
	for i := 0; i < n; i++ {
		full = f.prefetchAsync(tl, cands[i].Lo, cands[i].Blocks, budgetUnasked, false, live)
	}
	return full
}

// Read reads at the descriptor's position, advancing it.
func (f *File) Read(tl *simtime.Timeline, dst []byte) (int, error) {
	f.rt.mu.Lock()
	off := f.pos
	f.rt.mu.Unlock()
	n, err := f.ReadAt(tl, dst, off)
	f.SeekTo(off + int64(n))
	return n, err
}

// SeekTo sets the descriptor position.
func (f *File) SeekTo(off int64) {
	f.rt.mu.Lock()
	f.pos = off
	f.rt.mu.Unlock()
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
	// The detector trains on the write as asked, before the crossing and
	// whether or not the kernel takes it: it learns the application's
	// access pattern, not the kernel's answer, and every pinned digest
	// trains it here. The range tree is a belief about the kernel's cache,
	// so it marks only the blocks the kernel wrote.
	op := f.observeWrite(tl, lo, hi)
	n, err := f.kf.WriteAt(tl, data, off)
	if n > 0 {
		f.sf.tree.MarkCached(tl, lo, (off+int64(n)+bs-1)/bs)
	}
	f.rt.touch(f.sf, tl.Now())
	f.rt.maybeEvict(tl, op)
	return n, err
}

// observeWrite runs WriteAt's library-side pre-work: writes train the
// pattern detector — the ensemble's pattern state and shadow books when it
// is on, the per-descriptor counter otherwise — without issuing prefetch. Returns the op tick for the
// caller's maybeEvict.
func (f *File) observeWrite(tl *simtime.Timeline, lo, hi int64) int64 {
	switch o := f.rt.opt; {
	case o.Predict && f.sf.ens != nil:
		f.ensembleObserve(tl, lo, hi, false)
	case o.Predict && f.pred != nil:
		f.rt.mu.Lock()
		f.pred.Observe(lo, hi-lo)
		f.rt.mu.Unlock()
	}
	return f.rt.tick()
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

// prefetchAsync is the predictor path up (DESIGN.md §20): it admits a
// prefetch intent [lo, lo+blocks) through the shared gates in the order
// clamp, breaker, memory budget, bitmap elision, batching hysteresis,
// helper saturation, and hands what is left to a background helper thread
// that issues readahead_info. level is the budget gate's answer when the
// caller sized the intent by it (coverage, the optimistic open) and
// budgetUnasked otherwise: an intent passes the gate once. coverage tags the
// intent as coverage-policy prefetch for the per-origin effectiveness
// partition; arm, when given, is the predictor arm that drove it (ArmNone
// otherwise) — both ride the kernel request onto the inserted pages. It
// returns the leading part of the intent the range tree answered from full
// nodes (missingRuns), empty when no gate let the intent reach the tree.
func (f *File) prefetchAsync(tl *simtime.Timeline, lo, blocks int64, level budgetLevel, coverage bool, arm ...telemetry.Arm) (full bitmap.Run) {
	rt, sf := f.rt, f.sf
	o := rt.opt

	lo, hi := clampToFile(f.kf, lo, blocks)
	if hi <= lo || !rt.breakerAdmits(tl, sf, lo, hi) {
		return full
	}

	// Memory budget policy (§4.6): halt entirely below the low
	// watermark; below the high watermark, stay within the kernel's
	// static window for the range even when opt would allow more — over
	// remote extents that is the RTT-deepened one the kernel itself would
	// read ahead with (DESIGN.md §16). Above it, a file a
	// stream drops behind gets no more than is free: there the free memory
	// is the wake the stream gave back, not surplus, and a window larger
	// than it evicts its own front. The FetchAll policy is deliberately
	// memory-insensitive (Table 2).
	if !o.FetchAll && (o.OptLimits || o.AggressiveEvict || o.CoveragePrefetch) {
		if level == budgetUnasked {
			level = rt.budgetGate(tl, sf, lo, hi)
		}
		switch level {
		case budgetHalt:
			return full
		case budgetStatic:
			hi = min(hi, lo+f.kf.StaticWindow(lo, hi)*f.kf.Lead())
		default:
			rt.mu.Lock()
			behind := sf.droppedBehind
			rt.mu.Unlock()
			if behind {
				hi = min(hi, lo+rt.budget()-rt.v.Cache().Used())
			}
		}
	}
	hi = min(hi, lo+o.MaxPrefetchBytes/rt.v.BlockSize())

	var runBuf [runBufLen]bitmap.Run
	runs, full := rt.missingRuns(tl, sf, runBuf[:0], lo, hi)
	if len(runs) == 0 {
		return full
	}
	// Batching hysteresis: a window whose uncovered tail is still tiny is
	// not worth a kernel crossing yet; wait for the intent to accumulate.
	var missing int64
	for _, r := range runs {
		missing += r.Blocks()
	}
	if missing < min(16, (hi-lo)/4) {
		sf.giveBack(tl, runs)
		rt.rec.Event(tl.Now(), telemetry.OutcomeThrottledBatching, sf.inoID, lo, lo+missing)
		return full
	}
	// Helper saturation: when every background worker is booked solid,
	// a queued prefetch would complete too late to matter but would
	// still burn device bandwidth — drop the intent instead (a bounded
	// prefetch queue, as a real helper-thread pool would have).
	now := tl.Now()
	if rt.workers.EarliestFree() > now.Add(workerQueueBound) {
		sf.giveBack(tl, runs)
		rt.droppedPrefetch.Add(1)
		rt.rec.Event(now, telemetry.OutcomeDroppedQueueFull, sf.inoID, lo, hi)
		return full
	}
	kf, tag := f.kf, telemetry.ArmNone
	if len(arm) > 0 {
		tag = arm[0]
	}
	rt.background(now, telemetry.OpBgPrefetch, sf.inoID, func(wtl *simtime.Timeline) {
		rt.issueRuns(wtl, kf, sf, runs, coverage, tag)
	})
	return full
}

// workerQueueBound is how far ahead of the submitting thread the helper
// pool may be booked before new prefetch intents are dropped.
const workerQueueBound = 2 * simtime.Millisecond

// coveragePrefetch is the budget-driven aggressive population policy
// (§4.6): when the pattern is random but free memory remains above the
// watermarks, prefetch the missing blocks of a chunk starting at the
// access point. Random readers of a region thereby converge on full
// residency while memory lasts, eliminating compulsory misses that
// pattern-window prefetching can never cover. It returns prefetchAsync's
// full-node span. A file a stream has dropped behind is one the library has
// found it cannot hold, so it is left out until its reader streams again.
func (f *File) coveragePrefetch(tl *simtime.Timeline, lo int64) bitmap.Run {
	f.rt.mu.Lock()
	idle := f.sf.droppedBehind && f.streamState() < predictor.LikelySequential
	f.rt.mu.Unlock()
	if idle {
		return bitmap.Run{}
	}
	level := f.rt.budgetGate(tl, f.sf, lo, lo)
	if level == budgetHalt {
		return bitmap.Run{}
	}
	chunk := int64(64) // 256KB of 4KB blocks without opt
	if f.rt.opt.OptLimits && level == budgetAggressive {
		chunk = 1024 // 4MB when memory is plentiful
	}
	return f.prefetchAsync(tl, lo, chunk, level, true)
}

// ensureFetchAll kicks off (once) whole-file prefetch jobs and, on later
// calls, re-issues prefetch for blocks that eviction took away.
func (f *File) ensureFetchAll(tl *simtime.Timeline, op int64) {
	f.rt.mu.Lock()
	first := !f.sf.fetchAll
	f.sf.fetchAll = true
	f.rt.mu.Unlock()
	if first {
		f.prefetchAsync(tl, 0, f.kf.Inode().Blocks(), budgetUnasked, false)
		return
	}
	// Periodically repair holes (monitoring missing blocks via bitmaps).
	if op%1024 == 0 {
		f.prefetchAsync(tl, 0, f.kf.Inode().Blocks(), budgetUnasked, false)
	}
}

// FincorePollStep emulates one step of the APPonly[fincore] baseline
// (Figure 2): a background helper polls fincore over a window of the file
// and issues readahead(2) for the uncached regions it finds. Workloads
// drive it from their read loops.
func (f *File) FincorePollStep(tl *simtime.Timeline, windowBlocks int64) {
	rt := f.rt
	kf := f.kf
	rt.fincorePolls.Add(1)
	rt.background(tl.Now(), telemetry.OpBgPrefetch, kf.Inode().ID(), func(wtl *simtime.Timeline) {
		windowBlocks = min(windowBlocks, kf.Inode().Blocks())
		resident := bitmap.New(0)
		kf.Fincore(wtl, 0, windowBlocks, resident)
		for _, run := range resident.MissingRuns(0, windowBlocks) {
			kf.Readahead(wtl, run.Lo*rt.v.BlockSize(), run.Blocks()*rt.v.BlockSize())
			rt.prefetchCalls.Add(1)
		}
	})
}
