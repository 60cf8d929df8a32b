package vfs

// The write-side device submission paths live here, apart from the read
// paths in vfs.go: reads reach the device only through a plug (readStack
// has no other way), while writes — fsync's blocking lane and the cache's
// background writeback — submit against the stack directly through
// stackWriter (Linux likewise plugs the read/readahead submission paths;
// writeback batches through its own work lists).

import (
	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// stackWriter is the write paths' handle on the device stack: it submits
// writes and nothing else.
type stackWriter struct{ st *blockdev.Stack }

// write is a blocking write on the stack's priority lane.
func (w stackWriter) write(tl *simtime.Timeline, off, bytes int64) error {
	return w.st.Access(tl, blockdev.OpWrite, off, bytes)
}

// writeAsync reserves an asynchronous write submitted at `at`.
func (w stackWriter) writeAsync(at simtime.Time, off, bytes int64) (simtime.Time, error) {
	return w.st.AccessAsync(at, blockdev.OpWrite, off, bytes)
}

// syncWrite is a blocking write with bounded transient-fault retry and
// clamped exponential virtual-time backoff — the blocking write path's
// resilience to transient device glitches: they are absorbed here
// (charged as wait time), while persistent faults and exhausted budgets
// surface to the caller.
func (v *VFS) syncWrite(tl *simtime.Timeline, off, bytes int64) error {
	rp := v.retryPolicy()
	err := v.wr.write(tl, off, bytes)
	for attempt := 1; err != nil && blockdev.IsTransient(err) && attempt <= rp.Max; attempt++ {
		start := tl.Now()
		tl.WaitUntil(start.Add(rp.Backoff(attempt)), simtime.WaitIO)
		telemetry.Current(tl).Child("vfs.retry_backoff", telemetry.CatRetry, start, tl.Now()).
			Annotate("attempt", int64(attempt))
		v.rec.Add(telemetry.CtrVFSDemandRetries, 1)
		err = v.wr.write(tl, off, bytes)
	}
	return err
}

// flushRun is the page cache's dirty writeback hook: async device writes
// for the physical segments backing logical blocks [lo, hi) of inoID,
// with bounded virtual-time retry of transient faults. On error the
// cache re-inserts the run's pages dirty (see pagecache.FlushFn).
func (v *VFS) flushRun(at simtime.Time, inoID, lo, hi int64) (simtime.Time, error) {
	bs := v.BlockSize()
	rp := v.retryPolicy()
	last := at
	write := func(devOff, bytes int64) error {
		submit := at
		for attempt := 0; ; attempt++ {
			done, err := v.wr.writeAsync(submit, devOff, bytes)
			if err == nil {
				if done > last {
					last = done
				}
				return nil
			}
			if !blockdev.IsTransient(err) || attempt >= rp.Max {
				return err
			}
			v.rec.Add(telemetry.CtrVFSWritebackRetries, 1)
			submit = done.Add(rp.Backoff(attempt + 1))
		}
	}
	ino := v.fsys.InodeByID(inoID)
	if ino == nil {
		// Deleted file: write addressed by logical position (the data is
		// going away anyway; this keeps the device time honest).
		if err := write(lo*bs, (hi-lo)*bs); err != nil {
			return last, err
		}
		return last, nil
	}
	var physBuf [4]fs.PhysRun
	for _, pr := range ino.AppendMapRange(physBuf[:0], lo, hi) {
		if err := write(pr.Phys*bs, pr.Count*bs); err != nil {
			return last, err
		}
	}
	return last, nil
}
