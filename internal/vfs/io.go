package vfs

import (
	"errors"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/pagecache"
	"repro/internal/readahead"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// readScratch carries the reusable buffers of the ReadAt hot path — the
// lookup result (with its Present and touched-page scratch) and a run
// slice for misses and readahead queries. Pooled so steady-state
// cache-hit reads allocate nothing, from any number of goroutines.
type readScratch struct {
	res  pagecache.LookupResult
	runs []bitmap.Run
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// ErrNegativeOffset is pwrite(2)'s EINVAL for a negative offset, and an
// mmap load's there. A read at a negative offset returns nothing, and a
// prefetch call admits nothing.
var ErrNegativeOffset = errors.New("vfs: negative offset")

// ErrFileTooLarge is pwrite(2)'s EFBIG for a write that would take the file
// past pagecache.MaxPages blocks (2^32: ext4's 32-bit logical block number,
// 16 TiB at 4 KiB blocks), and VFS.CreateSynthetic's for a file that large.
// Nothing past that bound reaches the page cache, whose frames hold a page
// index in 32 bits.
var ErrFileTooLarge = errors.New("vfs: file too large")

// beyondMaxPages reports whether the n ≥ 1 bytes at off ≥ 0 reach past
// pagecache.MaxPages blocks: whether the index of their last block,
// computed without overflow, is MaxPages or more.
func (v *VFS) beyondMaxPages(off, n int64) bool {
	bs := v.BlockSize()
	return off/bs+(off%bs+n-1)/bs >= pagecache.MaxPages
}

// appendMissingRuns appends to dst the maximal runs of absent pages in a
// lookup's Present vector, which describes the pages from block lo on.
func appendMissingRuns(dst []bitmap.Run, present []bool, lo int64) []bitmap.Run {
	runStart := int64(-1)
	for i, p := range present {
		switch {
		case !p && runStart < 0:
			runStart = lo + int64(i)
		case p && runStart >= 0:
			dst = append(dst, bitmap.Run{Lo: runStart, Hi: lo + int64(i)})
			runStart = -1
		}
	}
	if runStart >= 0 {
		dst = append(dst, bitmap.Run{Lo: runStart, Hi: lo + int64(len(present))})
	}
	return dst
}

// observeSyscall records the virtual duration of the syscall body that runs
// between this call and the returned func (deferred by the caller). The
// disabled path returns a shared no-op closure: no allocation, no clock
// reads.
func (v *VFS) observeSyscall(tl *simtime.Timeline, s Syscall) func() {
	if v.rec == nil || tl == nil {
		return noopObserve
	}
	t0 := tl.Now()
	return func() {
		v.rec.ObserveSyscall(int(s), int64(tl.Now().Sub(t0)))
	}
}

var noopObserve = func() {}

// ReadAt implements pread(2): it walks the page cache (slow path, tree
// lock shared), synchronously fetches missing blocks, consults the
// kernel readahead state machine, waits for any in-flight prefetch
// covering the range, and copies the data to the caller.
func (f *File) ReadAt(tl *simtime.Timeline, dst []byte, off int64) (int, error) {
	defer f.v.observeSyscall(tl, SysRead)()
	f.v.enter(tl, SysRead)
	if off < 0 || len(dst) == 0 {
		return 0, nil
	}
	size := f.ino.Size()
	if off >= size {
		return 0, nil
	}
	n := int64(len(dst))
	if off+n > size {
		n = size - off
	}
	lo, hi := f.v.blockRange(off, n)
	fileBlocks := f.ino.Blocks()

	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	sc.res.Tenant = 0 // sync read path: shared default tenant
	f.fc.LookupRangeInto(tl, lo, hi, &sc.res)
	res := &sc.res

	// Demand-fetch the missing pages synchronously.
	if res.PresentCount < hi-lo {
		sc.runs = appendMissingRuns(sc.runs[:0], res.Present, lo)
		if err := f.fetchRuns(tl, sc.runs); err != nil {
			// The demand data never arrived; nothing was copied out.
			return 0, err
		}
	}

	// Kernel readahead decision (under the file's readahead state).
	f.mu.Lock()
	action := f.ra.OnDemand(f.v.cfg.RA, lo, hi-lo, fileBlocks,
		res.MarkerHit, !res.Present[0])
	f.mu.Unlock()
	if action.Pages() > 0 {
		// Both the sync initial window and the async marker ramp are
		// submitted without blocking the reader beyond its demanded
		// pages; later readers touching the window wait on readyAt.
		// Readahead is best-effort: a device fault here inserts nothing
		// (recorded in the decision trace) and the pages fall back to
		// demand reads. fetchRuns has consumed sc.runs; reuse it.
		// Cross-tier prefetch: a window over remote-resident extents
		// reaches deeper (RTT-scaled) so the longer fetch still completes
		// ahead of the reader; the marker stays where the state machine
		// put it, so the ramp cadence is unchanged.
		aHi := action.Hi
		if boost := f.rangeBoost(action.Lo, aHi); boost > 1 {
			aHi = action.Lo + (aHi-action.Lo)*boost
			if aHi > fileBlocks {
				aHi = fileBlocks
			}
		}
		missing := f.fc.AppendFastMissingRuns(tl, sc.runs[:0], action.Lo, aHi)
		sc.runs = missing
		_, _ = f.prefetchRuns(tl, tl.Now(), missing, action.MarkerAt, telemetry.OriginReadahead, telemetry.ArmNone)
	}

	// Wait for in-flight prefetch covering the demanded range. The wait
	// is capped at what a fresh priority-lane read of the range would
	// cost: the device's queues serve a blocking reader no slower than
	// that even when the async lane is backlogged.
	f.waitInflight(tl, res.ReadyAt, n)

	// Copy to user space.
	pages := hi - lo
	copyStart := tl.Now()
	tl.Advance(simtime.Duration(pages) * f.v.cfg.Costs.PageCopy)
	telemetry.Current(tl).Child("vfs.copy_out", telemetry.CatCopy, copyStart, tl.Now()).
		Annotate("pages", pages)
	read := f.ino.ReadAt(dst[:n], off)
	return read, nil
}

// waitInflight blocks the thread for in-flight prefetch I/O covering a
// demanded range of reqBytes, capped at the priority-lane fetch cost.
func (f *File) waitInflight(tl *simtime.Timeline, readyAt simtime.Time, reqBytes int64) {
	if readyAt <= tl.Now() {
		return
	}
	cap := tl.Now().Add(f.v.dev.SyncCost(blockdev.OpRead, reqBytes))
	if readyAt > cap {
		readyAt = cap
	}
	start := tl.Now()
	tl.WaitUntil(readyAt, simtime.WaitIO)
	telemetry.Current(tl).Child("vfs.wait_inflight", telemetry.CatInflight, start, tl.Now())
}

// Read reads from the file's current position, advancing it.
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

// SeekTo sets the file position to an absolute offset.
func (f *File) SeekTo(off int64) {
	f.mu.Lock()
	f.pos = off
	f.mu.Unlock()
}

// WriteAt implements pwrite(2) with buffered (write-back) semantics: data
// lands in the page cache dirty and in the backing store; device writes
// happen on eviction or fsync. Partial-block edges over existing data
// perform read-modify-write fetches (blocking — merging into an unreadable
// block would corrupt it); the dirty-balance throttle follows.
func (f *File) WriteAt(tl *simtime.Timeline, data []byte, off int64) (int, error) {
	defer f.v.observeSyscall(tl, SysWrite)()
	f.v.enter(tl, SysWrite)
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	if len(data) == 0 {
		return 0, nil
	}
	bs := f.v.BlockSize()
	n := int64(len(data))
	if f.v.beyondMaxPages(off, n) {
		return 0, ErrFileTooLarge
	}
	lo, hi := f.v.blockRange(off, n)
	oldSize := f.ino.Size()

	// RMW: a partial first/last block that exists on disk and is not
	// cached must be fetched first.
	var rmwBuf [2]bitmap.Run
	rmw := rmwBuf[:0]
	if off%bs != 0 && off < oldSize {
		if res := f.fc.LookupRange(tl, lo, lo+1); res.PresentCount == 0 {
			rmw = append(rmw, bitmap.Run{Lo: lo, Hi: lo + 1})
		}
	}
	if (off+n)%bs != 0 && off+n < oldSize && hi-1 != lo {
		if res := f.fc.LookupRange(tl, hi-1, hi); res.PresentCount == 0 {
			rmw = append(rmw, bitmap.Run{Lo: hi - 1, Hi: hi})
		}
	}
	if len(rmw) > 0 {
		// A failed read-modify-write edge fetch fails the write: merging
		// into a block we could not read would corrupt its other bytes.
		if err := f.fetchRuns(tl, rmw); err != nil {
			return 0, err
		}
	}

	// Move the data: backing store now, device on writeback.
	f.ino.WriteAt(data, off)
	tl.Advance(simtime.Duration(hi-lo) * f.v.cfg.Costs.PageCopy)
	f.fc.InsertRange(tl, lo, hi, pagecache.InsertOptions{Dirty: true, MarkerAt: -1})
	f.fc.SetDirtyRange(tl, lo, hi)
	f.v.balanceDirty(tl)
	return int(n), nil
}

// balanceDirty throttles buffered writers (balance_dirty_pages): once
// dirty pages exceed ~20% of memory and the device's writeback queue is
// backed up, the writer stalls until the queue drains to the congestion
// horizon — without this, buffered writes would "complete" at memory speed
// while the writeback debt grows unboundedly into the async lane.
func (v *VFS) balanceDirty(tl *simtime.Timeline) {
	if v.cache.Dirty() <= v.cache.Capacity()/5 {
		return
	}
	if b := v.dev.Backlog(tl.Now()); b > v.cfg.CongestionLimit {
		start := tl.Now()
		tl.WaitUntil(start.Add(b-v.cfg.CongestionLimit), simtime.WaitIO)
		telemetry.Current(tl).Child("vfs.dirty_throttle", telemetry.CatQueue, start, tl.Now())
	}
}

// Fsync writes back all dirty pages synchronously, charging the caller.
// On a device error the not-yet-written blocks are re-marked dirty
// (CollectDirtyRuns cleared them optimistically), so a failed fsync
// leaves the data cached and dirty for a later retry rather than
// silently dropping the writeback obligation.
func (f *File) Fsync(tl *simtime.Timeline) error {
	defer f.v.observeSyscall(tl, SysFsync)()
	f.v.enter(tl, SysFsync)
	runs := f.fc.CollectDirtyRuns(tl, 0, f.ino.Blocks())
	for i := range runs {
		if err := f.syncWriteRun(tl, runs[i:i+1]); err != nil {
			for _, later := range runs[i+1:] {
				f.fc.SetDirtyRange(tl, later.Lo, later.Hi)
			}
			f.v.rec.Add(telemetry.CtrVFSDemandIOErrors, 1)
			return err
		}
	}
	return nil
}

// syncWriteRun writes back one run of blocks through the blocking lane,
// chunk by chunk. On error the unwritten tail of the run is re-marked
// dirty.
func (f *File) syncWriteRun(tl *simtime.Timeline, run []bitmap.Run) (err error) {
	f.eachChunk(run, func(c chunk) bool {
		if c.bytes == 0 {
			return true
		}
		if err = f.v.syncWrite(tl, c.devOff, c.bytes); err != nil {
			f.fc.SetDirtyRange(tl, c.lo, run[0].Hi)
			f.v.rec.Event(tl.Now(), telemetry.OutcomeDeviceFault, f.ino.ID(), c.lo, run[0].Hi)
		}
		return err == nil
	})
	return err
}

// Readahead implements readahead(2). As in Linux, the request is clamped
// to the kernel's static window cap — the under-prefetch pathology of
// paper Figure 1: an application asking for 4MB gets 128KB. It returns the
// bytes actually submitted.
func (f *File) Readahead(tl *simtime.Timeline, off, nbytes int64) int64 {
	defer f.v.observeSyscall(tl, SysReadahead)()
	f.v.enter(tl, SysReadahead)
	bs := f.v.BlockSize()
	maxBytes := f.v.cfg.RA.MaxPages * bs
	if nbytes > maxBytes {
		nbytes = maxBytes
	}
	lo, hi := f.prefetchSpan(off, nbytes)
	if hi <= lo {
		return 0
	}
	// The legacy path walks the cache tree (no bitmap fast path).
	res := f.fc.LookupRange(tl, lo, hi)
	runs := appendMissingRuns(nil, res.Present, lo)
	// readahead(2) is advisory: a device fault inserts nothing and is
	// reported only through the bytes-submitted return value.
	if issued, err := f.prefetchRuns(tl, tl.Now(), runs, -1, telemetry.OriginReadahead, telemetry.ArmNone); err != nil {
		return issued * bs
	}
	return (hi - lo) * bs
}

// Advice is the fadvise(2) hint set.
type Advice int

// fadvise hints.
const (
	AdvSequential Advice = iota
	AdvRandom
	AdvDontNeed
	// AdvDontNeedCold is CROSS-OS's own: DONTNEED for the pages of the range
	// the kernel has not seen re-used. Those on its active list stay.
	AdvDontNeedCold
)

// Fadvise implements posix_fadvise(2).
func (f *File) Fadvise(tl *simtime.Timeline, adv Advice, off, nbytes int64) {
	f.v.enter(tl, SysFadvise)
	switch adv {
	case AdvSequential:
		f.mu.Lock()
		f.ra.SetMode(readahead.ModeSequential)
		f.mu.Unlock()
	case AdvRandom:
		f.mu.Lock()
		f.ra.SetMode(readahead.ModeRandom)
		f.mu.Unlock()
	case AdvDontNeed, AdvDontNeedCold:
		lo := off / f.v.BlockSize()
		hi := (off + nbytes + f.v.BlockSize() - 1) / f.v.BlockSize()
		if nbytes == 0 {
			hi = f.ino.Blocks()
		}
		if adv == AdvDontNeedCold {
			f.fc.RemoveColdRange(tl, lo, hi)
		} else {
			f.fc.RemoveRange(tl, lo, hi)
		}
	}
}

// Fincore implements the fincore/mincore residency query (§2.1): it holds
// the process address-space lock and walks the cache tree, which is both
// slow and obstructive. The result is written into dst.
func (f *File) Fincore(tl *simtime.Timeline, lo, hi int64, dst *bitmap.Bitmap) {
	f.v.enter(tl, SysFincore)
	if fb := f.ino.Blocks(); hi > fb {
		hi = fb
	}
	if hi <= lo {
		return
	}
	// Hold the mmap lock for the whole walk.
	f.v.mmapLock.Use(tl, simtime.Duration(hi-lo)*f.v.cfg.Costs.FincoreWalk/4)
	dst.ClearRange(lo, hi)
	f.fc.WalkResident(tl, lo, hi, func(i int64) { dst.Set(i) })
}
