package vfs

import (
	"repro/internal/fs"
	"repro/internal/simtime"
)

// Tier-aware prefetch policy: the vfs read paths consult the device
// stack's extent placement so readahead reaches deeper when the data it
// covers is remote-resident (the fetch takes an RTT longer, so the
// window must start earlier to hide it), and so congestion decisions
// weigh only the backends a request actually targets.

// rangeBoost reports the prefetch-depth multiplier for logical blocks
// [lo, hi): the maximum of the stack's RTT-scaled boost over the range's
// physical extents. 1 on untiered stacks, for all-local ranges, and with
// cross-tier prefetch disabled.
func (f *File) rangeBoost(lo, hi int64) int64 {
	st := f.v.dev
	if !st.Tiered() || hi <= lo {
		return 1
	}
	bs := f.v.BlockSize()
	boost := int64(1)
	var physBuf [4]fs.PhysRun
	for _, pr := range f.ino.AppendMapRange(physBuf[:0], lo, hi) {
		if b := st.PrefetchBoostFor(pr.Phys*bs, pr.Count*bs); b > boost {
			boost = b
		}
	}
	return boost
}

// StaticWindow reports the kernel's static prefetch window, in pages, for
// logical blocks [lo, hi): RA.MaxPages deepened by the range's cross-tier
// boost, within the absolute prefetch byte budget. It is the base limit of
// readahead_info and of the ring's prefetch SQE, and the window CROSS-LIB
// clips itself to when memory is low; readahead(2) keeps the bare
// RA.MaxPages (Figure 1's clamp). RA.MaxPages on untiered stacks and over
// local extents.
func (f *File) StaticWindow(lo, hi int64) int64 {
	cfg := &f.v.cfg
	return min(cfg.RA.MaxPages*f.rangeBoost(lo, hi), maxPrefetchBytes/f.v.BlockSize())
}

// RangeBacklog reports the worst per-backend backlog among only the
// backends serving logical blocks [lo, hi) — the congestion signal for
// a targeted prefetch decision, the kernel's and the library's ring
// deadline shed alike: a saturated backend the range never touches must
// not postpone it.
func (f *File) RangeBacklog(at simtime.Time, lo, hi int64) simtime.Duration {
	st := f.v.dev
	bs := f.v.BlockSize()
	var b simtime.Duration
	var physBuf [4]fs.PhysRun
	for _, pr := range f.ino.AppendMapRange(physBuf[:0], lo, hi) {
		if d := st.BacklogFor(at, pr.Phys*bs, pr.Count*bs); d > b {
			b = d
		}
	}
	return b
}
