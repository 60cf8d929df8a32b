package crosslib

import (
	"errors"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// The way up (DESIGN.md §20): how a prefetch intent is admitted, issued
// and settled, each part written once. The predictor path (prefetchAsync),
// the ring's prefetch SQE (Ring.admit) and the mmap scan call the gates in
// the order each needs; none of them branches on its caller.

// clampToFile trims the intent [lo, lo+blocks) to the file and returns it
// as [lo, hi); hi <= lo means nothing is left.
func clampToFile(kf *vfs.File, lo, blocks int64) (int64, int64) {
	lo = max(lo, 0)
	return lo, min(lo+blocks, kf.Inode().Blocks())
}

// breakerAdmits is the circuit-breaker gate: a file whose background
// prefetches keep failing is left to demand reads until the breaker
// half-opens again. A refused intent is counted and traced.
func (rt *Runtime) breakerAdmits(tl *simtime.Timeline, sf *sharedFile, lo, hi int64) bool {
	if rt.opt.BreakerThreshold <= 0 {
		return true
	}
	rt.mu.Lock()
	allowed := sf.brk.allow(tl.Now())
	rt.mu.Unlock()
	if allowed {
		return true
	}
	rt.droppedBreaker.Add(1)
	telemetry.Current(tl).Annotate("breaker_open", 1)
	rt.rec.Event(tl.Now(), telemetry.OutcomeDroppedBreakerOpen, sf.inoID, lo, hi)
	return false
}

// budgetLevel is what the memory budget allows a prefetch intent (§4.6).
type budgetLevel int

const (
	budgetUnasked    budgetLevel = iota // the gate has not been consulted yet
	budgetHalt                          // free < lowWaterFrac: no prefetching
	budgetStatic                        // free < highWaterFrac: the kernel's static window
	budgetUnclipped                     // free == highWaterFrac: the intent as formed, nothing optimistic
	budgetAggressive                    // free > highWaterFrac: as much as opt allows
)

// budgetGate is the memory-budget gate (DESIGN.md §24): the one reading of
// free memory against the halt and aggressive marks, for the intent
// [lo, hi) as its caller has formed it so far. A halted intent is counted
// and traced; what a caller does with the other levels — clip to the static
// window, size a coverage chunk, skip an optimistic open — is its own
// policy. The evictor wakes above the halt mark (maybeEvict), so a halt
// means reclaim found nothing cold, not that it has not run yet.
//
// Exactly at the high mark an intent is neither clipped nor enlarged. That
// is a level of its own because free memory parks there for whole phases
// when the kernel's reclaim settles on the same fraction (the overload
// sweep: 7 168 of 10 240 pages used), and testdata/sweeps/overload.json
// pins it.
func (rt *Runtime) budgetGate(tl *simtime.Timeline, sf *sharedFile, lo, hi int64) budgetLevel {
	switch free := rt.freeFrac(); {
	case free < lowWaterFrac:
		rt.droppedLowMemory.Add(1)
		rt.rec.Event(tl.Now(), telemetry.OutcomeDroppedLowMemory, sf.inoID, lo, hi)
		return budgetHalt
	case free < highWaterFrac:
		return budgetStatic
	case free > highWaterFrac:
		return budgetAggressive
	default:
		return budgetUnclipped
	}
}

// runBufLen is the length of the stack buffer a caller hands missingRuns;
// a window with more missing runs than this spills them to the heap. The
// most one window held on the benchmark's cells (seed 1, every call of
// missingRuns in a whole run counted) was 38, on serve_rings; lsm_mixed_rw
// peaked at 23, tier_stripe_scan at 12, lsm_zipf_get at 6, and the
// streaming cells at 1.
const runBufLen = 48

// missingRuns is the elision gate: it appends to dst the runs of [lo, hi)
// that the user-level bitmap shows neither cached nor claimed, marking
// them requested. None left means the crossing is elided — the core saving
// of cache visibility (§4.2) — which is counted and traced here. full is
// the leading part of [lo, hi) the tree answered from full nodes, for a
// read inside it to hand to Tree.MarkRead.
func (rt *Runtime) missingRuns(tl *simtime.Timeline, sf *sharedFile, dst []bitmap.Run, lo, hi int64) (runs []bitmap.Run, full bitmap.Run) {
	runs, full = sf.tree.AppendNeedsPrefetch(tl, dst, lo, hi)
	if len(runs) == 0 {
		rt.savedPrefetch.Add(1)
		rt.rec.Event(tl.Now(), telemetry.OutcomeSavedByBitmap, sf.inoID, lo, hi)
	}
	return runs, full
}

// giveBack drops the requested marks of runs that will not be issued, so
// that a later intent can ask for them again.
func (sf *sharedFile) giveBack(tl *simtime.Timeline, runs []bitmap.Run) {
	for _, r := range runs {
		sf.tree.ClearRequested(tl, r.Lo, r.Hi)
	}
}

// background runs fn on a helper thread, under a root span of its own.
func (rt *Runtime) background(at simtime.Time, op telemetry.Op, ino int64, fn func(wtl *simtime.Timeline)) {
	rt.workers.Run(at, func(wtl *simtime.Timeline) {
		root := rt.tr.Root(wtl, op, ino)
		fn(wtl)
		root.Finish(wtl)
	})
}

// issueRuns issues the missing runs of one intent on a helper timeline and
// stops at the first definitive failure: that call fed the breaker once for
// the whole intent, and issuing the remaining runs would feed it once per
// run — a single bad multi-run intent could trip it alone — and burn
// crossings against a device that just failed definitively. The unissued
// runs get their requested bits back instead.
func (rt *Runtime) issueRuns(wtl *simtime.Timeline, kf *vfs.File, sf *sharedFile, runs []bitmap.Run, coverage bool, arm telemetry.Arm) {
	for i, r := range runs {
		if !rt.issue(wtl, kf, sf, r.Lo, r.Hi, coverage, arm) {
			sf.giveBack(wtl, runs[i+1:])
			return
		}
	}
}

// issue is the one kernel prefetch call for [lo, hi): one window per
// intent, always. Whatever the kernel clamps off — its static window
// without opt, the absolute prefetch byte budget with it — is given back,
// never re-asked: issuing a storm of calls to get around a clamp is
// exactly what the paper's library does not do. A transient device error
// is retried here, within the budget, after a backoff on the helper's
// timeline (exponential, seeded jitter). Reports false on a definitive
// failure.
// coverage and arm propagate the intent's policy tags into the request.
func (rt *Runtime) issue(wtl *simtime.Timeline, kf *vfs.File, sf *sharedFile, lo, hi int64, coverage bool, arm telemetry.Arm) bool {
	o := rt.opt
	bs := rt.v.BlockSize()
	rt.rec.Event(wtl.Now(), telemetry.OutcomeIssued, sf.inoID, lo, hi)

	req := vfs.CacheInfoRequest{
		Offset:   lo * bs,
		Bytes:    (hi - lo) * bs,
		BitmapLo: lo,
		BitmapHi: hi,
		Coverage: coverage,
		Arm:      arm,
	}
	if o.OptLimits {
		req.LimitOverride = hi - lo
	}
	snap := windowPool.Get().(*bitmap.Window)
	defer windowPool.Put(snap)
	for attempt := 1; ; attempt++ {
		rt.rec.Add(telemetry.CtrLibIssuedPages, hi-lo)
		info := kf.ReadaheadInfo(wtl, req, snap)
		rt.prefetchCalls.Add(1)
		rt.prefetchedPgs.Add(info.PrefetchedPages)
		granted := info.RequestedPages
		if err := info.PrefetchErr; err == nil || !blockdev.IsTransient(err) || attempt > o.RetryMax {
			return rt.settle(wtl, sf, lo, hi, granted, info.PrefetchedPages, snap, err)
		}
		// The part of the window that did land is the kernel's truth
		// already; the re-issue asks for the whole window again and the
		// kernel's bitmap absorbs what is resident.
		sf.tree.ImportBitmap(wtl, snap, lo, lo+granted)
		backoffStart := wtl.Now()
		wtl.WaitUntil(backoffStart.Add(retryDelay(o.FaultSeed, sf.inoID, lo, attempt)), simtime.WaitIO)
		telemetry.Current(wtl).Child("lib.retry_backoff", telemetry.CatRetry,
			backoffStart, wtl.Now()).Annotate("attempt", int64(attempt))
		rt.prefetchRetries.Add(1)
		rt.rec.Add(telemetry.CtrLibPrefetchRetries, 1)
		rt.rec.Event(wtl.Now(), telemetry.OutcomeRetriedTransient, sf.inoID, lo, hi)
	}
}

// settle books the kernel's final answer to the intent [lo, hi), under the
// issuer and under the ring's completions alike; it reports whether the
// intent succeeded.
//
// The granted prefix becomes cached: through the exported bitmap when the
// call brought one (snap; the kernel's truth whatever the outcome — minus
// what congestion control postponed or a device fault aborted, which stays
// missing and can be asked for again), and on the word of a success
// otherwise. The breaker is fed once per intent: a success only when
// fetched pages prove the device worked (an answer satisfied from cache
// proves nothing and must not close the breaker), a failure only for a
// device error — a shed or a missed deadline is the kernel refusing work,
// not the device failing it, and leaves even a half-open probe slot alone.
// Whatever was not granted — the clamped remainder, or on any error the
// whole intent — gets its requested bits back; demand reads still cover it.
func (rt *Runtime) settle(tl *simtime.Timeline, sf *sharedFile, lo, hi, granted, fetched int64, snap *bitmap.Window, err error) bool {
	switch {
	case granted <= 0:
	case snap != nil:
		sf.tree.ImportBitmap(tl, snap, lo, lo+granted)
	case err == nil:
		sf.tree.MarkCached(tl, lo, lo+granted)
	}
	switch {
	case err == nil:
		if fetched > 0 {
			rt.noteFault(tl, sf, false)
		}
		lo += granted
	case errors.Is(err, vfs.ErrShed) || errors.Is(err, vfs.ErrDeadlineExceeded):
	default:
		rt.noteFault(tl, sf, true)
	}
	sf.tree.ClearRequested(tl, lo, hi)
	return err == nil
}

// noteFault feeds one definitive background-prefetch outcome to the
// file's circuit breaker and records trips/recoveries.
func (rt *Runtime) noteFault(tl *simtime.Timeline, sf *sharedFile, failed bool) {
	o := rt.opt
	if o.BreakerThreshold <= 0 {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	now := tl.Now()
	if failed {
		if sf.brk.failure(now, o.BreakerThreshold, o.BreakerCooloff) {
			rt.breakerTrips.Add(1)
			rt.rec.Add(telemetry.CtrLibBreakerTrips, 1)
			rt.rec.Event(now, telemetry.OutcomeBreakerTripped, sf.inoID, 0, 0)
		}
		return
	}
	if sf.brk.success() {
		rt.breakerRecovered.Add(1)
		rt.rec.Add(telemetry.CtrLibBreakerRecoveries, 1)
		rt.rec.Event(now, telemetry.OutcomeBreakerRecovered, sf.inoID, 0, 0)
	}
}

// windowPool recycles the readahead_info export snapshots: a call fills
// the window it asked for and the range tree has imported it by the time
// the call's helper returns, so the words are reused call after call.
var windowPool = sync.Pool{New: func() any { return new(bitmap.Window) }}

// A transient-fault retry backs off retryBase, doubling per attempt up to
// retryDelayCap — the doubling saturates there instead of overflowing (or
// stalling a worker for unbounded virtual time) under a deep RetryMax — and
// each backoff is stretched by up to retryJitterFrac of itself.
const (
	retryBase       = 200 * simtime.Microsecond
	retryDelayCap   = 10 * simtime.Millisecond
	retryJitterFrac = 0.25
)

// retryDelay is the deterministic backoff before transient-fault retry
// n (1-based): the device plug's backoff curve, retryBase<<(n-1)
// saturating at retryDelayCap, stretched by seeded jitter so retries
// across files decorrelate without wall-clock randomness.
func retryDelay(seed, ino, lo int64, attempt int) simtime.Duration {
	d := blockdev.RetryPolicy{Base: retryBase, Cap: retryDelayCap}.Backoff(attempt)
	h := faultinject.Hash(uint64(seed), uint64(ino), uint64(lo), uint64(attempt))
	frac := float64(h>>11) / float64(1<<53) // [0, 1)
	return d + simtime.Duration(float64(d)*retryJitterFrac*frac)
}
