package vfs

import (
	"repro/internal/bitmap"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// CacheInfoRequest is the control-plane half of the readahead_info `info`
// structure (§4.4): what to prefetch, which bitmap window to export, and
// optional limit relaxation.
type CacheInfoRequest struct {
	// Offset and Bytes describe the byte range to prefetch. Bytes == 0
	// makes the call export-only (no prefetch).
	Offset, Bytes int64
	// BitmapLo and BitmapHi select the block window of the per-inode
	// cache bitmap to copy out. BitmapHi == 0 defaults to the admitted
	// prefetch range.
	BitmapLo, BitmapHi int64
	// LimitOverride, in pages, raises the per-call prefetch cap beyond
	// the kernel's static window when the kernel allows it (§4.7).
	LimitOverride int64
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
	// RequestedPages counts the pages admitted after the file and limit
	// clamps.
	RequestedPages  int64
	PrefetchedPages int64
	// AlreadyCached reports that every requested page was resident (the
	// call issued no I/O).
	AlreadyCached bool
	// FileCachedPages is the file's resident page count.
	FileCachedPages int64
	// Hits and Misses are the file's lifetime lookup counters.
	Hits, Misses int64
	// FreePages and CapacityPages describe the global memory budget.
	FreePages, CapacityPages int64
	// PrefetchErr is the device error that aborted this call's prefetch,
	// if any. Pages covered by the failed portion were NOT inserted; the
	// transient-vs-persistent classification (blockdev.IsTransient)
	// drives the caller's retry policy.
	PrefetchErr error
}

// ReadaheadInfo is the new multi-purpose system call (§4.4). In one kernel
// crossing it:
//
//  1. checks the requested range against the per-inode cache bitmap via
//     the delineated fast path (bitmap rw-lock, never the cache-tree
//     lock);
//  2. issues asynchronous prefetch I/O for only the missing runs, clamped
//     by the kernel's prefetch admission (admitPrefetch);
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

	info := CacheInfo{CapacityPages: v.cache.Capacity(), FreePages: v.cache.Free()}
	lo, hi := f.prefetchSpan(req.Offset, req.Bytes)
	if hi > lo {
		requested := hi - lo
		hi = f.admitPrefetch(lo, hi, req.LimitOverride)
		info.RequestedPages = hi - lo
		// Fast path: bitmap lookup only. prefetchRuns below is done with
		// the runs when it returns.
		sc := readScratchPool.Get().(*readScratch)
		defer readScratchPool.Put(sc)
		sc.runs = f.fc.AppendFastMissingRuns(tl, sc.runs[:0], lo, hi)
		sp.Annotate("requested_pages", requested)
		sp.Annotate("clamped_pages", requested-info.RequestedPages)
		if len(sc.runs) == 0 {
			info.AlreadyCached = true
			sp.Annotate("already_cached", 1)
		} else {
			origin := telemetry.OriginCrossOS
			if req.Coverage {
				origin = telemetry.OriginCoverage
			}
			issued, err := f.prefetchRuns(tl, tl.Now(), sc.runs, -1, origin, req.Arm)
			info.PrefetchedPages = issued
			info.PrefetchErr = err
			v.rec.Add(telemetry.CtrKernelPrefetchedPages, issued)
			sp.Annotate("prefetched_pages", issued)
		}
	}

	// Selective bitmap export.
	if dst != nil {
		blo, bhi := req.BitmapLo, req.BitmapHi
		if bhi <= blo {
			blo, bhi = lo, hi
		}
		if fb := f.ino.Blocks(); bhi > fb {
			bhi = fb
		}
		f.fc.ExportBitmap(tl, blo, bhi, dst)
	}

	info.FileCachedPages = f.fc.CachedPages()
	info.Hits = f.fc.Hits()
	info.Misses = f.fc.Misses()
	return info
}

// prefetchSpan is the logical block range [lo, hi) that a prefetch call
// for n bytes at off names, clipped to the file. A negative offset or a
// count of zero or less names no block of the file, at any offset: the
// range is empty, and readahead(2), readahead_info and a ring prefetch SQE
// admit and book nothing.
func (f *File) prefetchSpan(off, n int64) (lo, hi int64) {
	if off < 0 || n <= 0 {
		return 0, 0
	}
	lo, hi = f.v.blockRange(off, n)
	return lo, min(hi, f.ino.Blocks())
}

// admitPrefetch is the kernel's prefetch admission, one rule for
// readahead_info and the ring's prefetch SQE. The range [lo, hi) is clamped
// to its static window (StaticWindow: RA.MaxPages deepened by the range's
// cross-tier boost) or, when the kernel allows overrides and override
// exceeds RA.MaxPages, to override pages deepened by the same boost —
// within the absolute prefetch byte budget either way. It books the
// requested, admitted and rejected pages and returns the admitted end.
func (f *File) admitPrefetch(lo, hi, override int64) int64 {
	v := f.v
	ra, maxPages := v.cfg.RA.MaxPages, maxPrefetchBytes/v.BlockSize()
	limit := f.StaticWindow(lo, hi)
	if v.cfg.AllowLimitOverride && override > ra {
		limit = min(min(override, maxPages)*limit/ra, maxPages)
	}
	granted := min(hi-lo, limit)
	v.rec.Add(telemetry.CtrKernelRequestedPages, hi-lo)
	v.rec.Add(telemetry.CtrKernelAdmittedPages, granted)
	v.rec.Add(telemetry.CtrKernelRejectedPages, hi-lo-granted)
	return lo + granted
}
