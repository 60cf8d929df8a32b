package vfs

import (
	"repro/internal/bitmap"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Range is one byte range of a vectored readahead_info request.
type Range struct {
	Offset, Bytes int64
}

// CacheInfoRequest is the control-plane half of the readahead_info `info`
// structure (§4.4): what to prefetch, which bitmap window to export, and
// optional limit relaxation.
type CacheInfoRequest struct {
	// Offset and Bytes describe the byte range to prefetch. Bytes == 0
	// makes the call export-only (no prefetch).
	Offset, Bytes int64
	// Ranges, when non-empty, makes the call vectored: each range is an
	// independent prefetch window (the per-call limit applies per range),
	// all served in this one kernel crossing with one submission plug —
	// the batching amortization the aggregator in CROSS-LIB relies on.
	// Offset/Bytes are ignored. Ranges should be disjoint; overlapping
	// ranges may double-issue I/O exactly as two separate calls would.
	Ranges []Range
	// BitmapLo and BitmapHi select the block window of the per-inode
	// cache bitmap to copy out. BitmapHi == 0 defaults to the prefetch
	// range (vectored: the hull of the ranges, rounded to words).
	BitmapLo, BitmapHi int64
	// LimitOverride, in pages, raises the per-call prefetch cap beyond
	// the kernel's static window when the kernel allows it (§4.7).
	LimitOverride int64
	// DisablePrefetch turns this call into a pure query.
	DisablePrefetch bool
	// Coverage marks the request as CROSS-LIB coverage prefetch (whole-file
	// warm-up) rather than predictor-driven readahead, so the inserted
	// pages book under OriginCoverage in the effectiveness partition.
	Coverage bool
	// Arm tags which predictor arm's candidate drove this prefetch intent
	// (ArmNone when none did — open prefetch, fetch-all, coverage, intent
	// flushes). The kernel threads it onto the inserted pages so the
	// per-arm effectiveness partition attributes real prefetch traffic.
	Arm telemetry.Arm
}

// CacheInfo is the telemetry half of the `info` structure filled by the
// kernel on return.
type CacheInfo struct {
	// RequestedPages and PrefetchedPages report the prefetch outcome —
	// the visibility whose absence causes Figure 1's pathologies.
	RequestedPages  int64
	PrefetchedPages int64
	// Granted, for vectored requests only, reports per-range pages
	// admitted after the file and limit clamps, in request order.
	Granted []int64
	// AlreadyCached reports that every requested page was resident (the
	// call issued no I/O).
	AlreadyCached bool
	// FileCachedPages is the file's resident page count.
	FileCachedPages int64
	// Hits and Misses are the file's lifetime lookup counters.
	Hits, Misses int64
	// FreePages and CapacityPages describe the global memory budget.
	FreePages, CapacityPages int64
	// ReadyAt is the completion time of the I/O issued by this call.
	ReadyAt simtime.Time
	// PrefetchErr is the device error that aborted this call's prefetch,
	// if any. Pages covered by the failed portion were NOT inserted; the
	// transient-vs-persistent classification (blockdev.IsTransient)
	// drives the caller's retry policy.
	PrefetchErr error
}

// ReadaheadInfo is the new multi-purpose system call (§4.4). In one kernel
// crossing it:
//
//  1. checks the requested range(s) against the per-inode cache bitmap via
//     the delineated fast path (bitmap rw-lock, never the cache-tree
//     lock);
//  2. issues asynchronous prefetch I/O for only the missing runs, clamped
//     per range by the effective prefetch limit, through one submission
//     plug (vectored requests share the crossing AND the dispatch batch);
//  3. snapshots the requested bitmap window into dst (selective export:
//     dst holds that window only, and its storage is reused); and
//  4. fills the telemetry fields of CacheInfo.
//
// dst may be nil to skip the export.
func (f *File) ReadaheadInfo(tl *simtime.Timeline, req CacheInfoRequest, dst *bitmap.Window) CacheInfo {
	v := f.v
	defer v.observeSyscall(tl, SysReadaheadInfo)()
	sp := telemetry.Begin(tl, "vfs.readahead_info", telemetry.CatCPU)
	defer sp.End(tl)
	v.enter(tl, SysReadaheadInfo)
	bs := v.BlockSize()
	fileBlocks := f.ino.Blocks()

	ranges := req.Ranges
	vectored := len(ranges) > 0
	var one [1]Range
	if !vectored {
		one[0] = Range{Offset: req.Offset, Bytes: req.Bytes}
		ranges = one[:]
	}

	var info CacheInfo
	info.CapacityPages = v.cache.Capacity()
	info.FreePages = v.cache.Free()

	// Effective per-range limit: static kernel cap, or the caller's
	// override when the kernel is configured to allow it. Each range is
	// an independent readahead window, so the limit applies per range.
	ra, maxPages := v.cfg.RA.MaxPages, maxPrefetchBytes/bs
	limit := ra
	if v.cfg.AllowLimitOverride && req.LimitOverride > limit {
		limit = min(req.LimitOverride, maxPages)
	}

	// prefetchRuns below is done with the runs when it returns.
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	missing := sc.runs[:0]
	var reqTotal, clampTotal int64
	hullLo, hullHi := int64(-1), int64(-1)
	requested := false
	for _, rg := range ranges {
		lo, hi := v.blockRange(rg.Offset, rg.Bytes)
		if hi > fileBlocks {
			hi = fileBlocks
		}
		if rg.Bytes > 0 && hi > lo {
			requested = true
			preClamp := hi - lo
			// Cross-tier prefetch: the limit scales with the range's
			// static window, RTT-deepened over remote extents, always
			// within the absolute prefetch byte budget.
			rlimit := min(limit*f.StaticWindow(lo, hi)/ra, maxPages)
			if hi-lo > rlimit {
				hi = lo + rlimit
			}
			granted := hi - lo
			v.rec.Add(telemetry.CtrKernelRequestedPages, preClamp)
			v.rec.Add(telemetry.CtrKernelAdmittedPages, granted)
			v.rec.Add(telemetry.CtrKernelRejectedPages, preClamp-granted)
			reqTotal += preClamp
			clampTotal += preClamp - granted
			info.RequestedPages += granted
			if vectored {
				info.Granted = append(info.Granted, granted)
			}
			// Fast path: bitmap lookup only; runs from every range feed
			// one prefetch submission below.
			missing = f.fc.AppendFastMissingRuns(tl, missing, lo, hi)
		} else if vectored {
			info.Granted = append(info.Granted, 0)
		}
		if hullLo < 0 || lo < hullLo {
			hullLo = lo
		}
		if hi > hullHi {
			hullHi = hi
		}
	}
	sc.runs = missing
	if requested {
		sp.Annotate("requested_pages", reqTotal)
		sp.Annotate("clamped_pages", clampTotal)
		if vectored {
			sp.Annotate("ranges", int64(len(ranges)))
		}
		switch {
		case len(missing) == 0:
			info.AlreadyCached = true
			sp.Annotate("already_cached", 1)
		case req.DisablePrefetch:
			// Pure query; report what would be fetched.
		default:
			origin := telemetry.OriginCrossOS
			if req.Coverage {
				origin = telemetry.OriginCoverage
			}
			issued, err := f.prefetchRuns(tl, tl.Now(), missing, -1, origin, req.Arm)
			info.PrefetchedPages = issued
			info.PrefetchErr = err
			info.ReadyAt = f.fc.ResidentReadyAt(hullLo, hullHi)
			v.rec.Add(telemetry.CtrKernelPrefetchedPages, issued)
			sp.Annotate("prefetched_pages", issued)
		}
	}

	// Selective bitmap export.
	if dst != nil {
		blo, bhi := req.BitmapLo, req.BitmapHi
		if bhi <= blo {
			blo, bhi = hullLo, hullHi
		}
		if bhi > fileBlocks {
			bhi = fileBlocks
		}
		f.fc.ExportBitmap(tl, blo, bhi, dst)
	}

	info.FileCachedPages = f.fc.CachedPages()
	info.Hits = f.fc.Hits()
	info.Misses = f.fc.Misses()
	return info
}
