package simtime

// Costs is the calibrated CPU cost table used across the simulated kernel
// and the CROSS-LIB runtime. Values approximate a ~3GHz x86 server (the
// paper's AMD 7543 testbed) and are deliberately round; the evaluation
// cares about ratios between costs (syscall vs memcpy vs bitmap op), not
// absolute nanoseconds.
type Costs struct {
	// Syscall is the fixed entry/exit cost of any system call.
	Syscall Duration
	// PageCopy is the cost of copying one 4KB page between kernel and
	// user space (~10 GB/s memcpy).
	PageCopy Duration
	// TreeLookup is the per-page cost of a page-cache tree (Xarray)
	// lookup, charged under the tree lock.
	TreeLookup Duration
	// TreeInsert is the per-page cost of inserting into the cache tree,
	// charged under the tree lock (write side).
	TreeInsert Duration
	// TreeDelete is the per-page cost of removing from the cache tree.
	TreeDelete Duration
	// BitmapOp is the cost of a bitmap test/set over one 64-block word.
	BitmapOp Duration
	// BitmapCopy is the per-64-byte cost of copying bitmap state to
	// user space.
	BitmapCopy Duration
	// RangeTreeOp is the cost of a range-tree descend + node operation.
	RangeTreeOp Duration
	// LRUOp is the cost of moving a page between LRU lists.
	LRUOp Duration
	// PageAlloc is the cost of allocating one page frame.
	PageAlloc Duration
	// ReclaimPage is the direct-reclaim cost of evicting one page.
	ReclaimPage Duration
	// FincoreWalk is the per-page cost of a fincore cache-tree walk,
	// held under the process address-space lock.
	FincoreWalk Duration
	// FaultEntry is the fixed cost of taking a page fault (mmap path).
	FaultEntry Duration
	// LibOverhead is the CROSS-LIB shim cost per intercepted call.
	LibOverhead Duration
	// JournalOp is the per-transaction journal cost of an ext4-like
	// metadata update.
	JournalOp Duration
}

// DefaultCosts returns the calibrated default cost table.
func DefaultCosts() Costs {
	return Costs{
		Syscall:     900 * Nanosecond,
		PageCopy:    400 * Nanosecond,
		TreeLookup:  120 * Nanosecond,
		TreeInsert:  260 * Nanosecond,
		TreeDelete:  200 * Nanosecond,
		BitmapOp:    18 * Nanosecond,
		BitmapCopy:  10 * Nanosecond,
		RangeTreeOp: 90 * Nanosecond,
		LRUOp:       60 * Nanosecond,
		PageAlloc:   150 * Nanosecond,
		ReclaimPage: 700 * Nanosecond,
		FincoreWalk: 140 * Nanosecond,
		FaultEntry:  1200 * Nanosecond,
		LibOverhead: 80 * Nanosecond,
		JournalOp:   2 * Microsecond,
	}
}
