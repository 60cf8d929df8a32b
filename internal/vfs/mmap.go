package vfs

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/readahead"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Mapping is a memory mapping of a file (§4.6 "Support for Memory-Mapped
// I/O"). Loads touch pages directly: present pages cost almost nothing,
// absent pages take a page fault, and the fault path runs the same
// readahead machinery as read(2) (Linux's filemap_fault). madvise hints
// parallel fadvise.
type Mapping struct {
	f *File

	mu sync.Mutex
	ra readahead.State

	faults atomic.Int64
}

// Mmap maps the file.
func (v *VFS) Mmap(tl *simtime.Timeline, f *File) *Mapping {
	v.enter(tl, SysOpen)
	return &Mapping{f: f}
}

// Faults reports how many page-fault groups the mapping has taken.
func (m *Mapping) Faults() int64 { return m.faults.Load() }

// Madvise applies an madvise hint to the mapping's fault-path readahead.
func (m *Mapping) Madvise(tl *simtime.Timeline, adv Advice) {
	m.f.v.enter(tl, SysFadvise)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch adv {
	case AdvSequential:
		m.ra.SetMode(readahead.ModeSequential)
	case AdvRandom:
		m.ra.SetMode(readahead.ModeRandom)
	default:
		m.ra.SetMode(readahead.ModeNormal)
	}
}

// faultAroundPages is Linux's fault-around window (16 pages = 64KB).
const faultAroundPages = 16

// Load touches bytes [off, off+n) of the mapping, faulting in missing
// pages. When dst is non-nil the bytes are also copied out (so callers
// that need content correctness can verify it); the copy itself is free in
// virtual time, matching mmap's zero-copy promise. A device fault on the
// demand (fault-in) path is returned — the simulation's stand-in for the
// SIGBUS a real mapping would raise; fault-path readahead stays
// best-effort.
func (m *Mapping) Load(tl *simtime.Timeline, off, n int64, dst []byte) error {
	if n <= 0 {
		return nil
	}
	if off < 0 {
		return ErrNegativeOffset
	}
	f := m.f
	v := f.v
	size := f.ino.Size()
	if off >= size {
		return nil
	}
	if off+n > size {
		n = size - off
	}
	lo, hi := v.blockRange(off, n)
	fileBlocks := f.ino.Blocks()

	res := f.fc.LookupRange(tl, lo, hi)

	if res.PresentCount < hi-lo {
		// Fault groups: contiguous missing runs, each one fault.
		runs := appendMissingRuns(nil, res.Present, lo)
		m.mu.Lock()
		randomHint := m.ra.Mode() == readahead.ModeRandom
		m.mu.Unlock()
		for _, r := range runs {
			if randomHint {
				// madvise(RANDOM) disables fault-around: every missing
				// page is its own fault and its own device read — the
				// slowdown the paper's APPonly mmap baseline suffers.
				for i := r.Lo; i < r.Hi; i++ {
					v.enter(tl, SysMmapFault)
					tl.Advance(v.cfg.Costs.FaultEntry)
					m.faults.Add(1)
					sp := telemetry.Begin(tl, "vfs.mmap_fault", telemetry.CatCPU)
					page := [1]bitmap.Run{{Lo: i, Hi: i + 1}}
					err := f.fetchRuns(tl, page[:])
					sp.End(tl)
					if err != nil {
						return err
					}
				}
				continue
			}
			v.enter(tl, SysMmapFault)
			tl.Advance(v.cfg.Costs.FaultEntry)
			m.faults.Add(1)
			// Fault-around: extend the fetch to the window boundary.
			fhi := r.Lo + faultAroundPages
			if fhi < r.Hi {
				fhi = r.Hi
			}
			if fhi > fileBlocks {
				fhi = fileBlocks
			}
			sp := telemetry.Begin(tl, "vfs.mmap_fault", telemetry.CatCPU)
			sp.Annotate("fault_around", fhi-r.Lo)
			missing := f.fc.FastMissingRuns(tl, r.Lo, fhi)
			err := f.fetchRuns(tl, missing)
			sp.End(tl)
			if err != nil {
				return err
			}
		}
	}

	// Fault-path readahead, as in filemap_fault.
	m.mu.Lock()
	action := m.ra.OnDemand(v.cfg.RA, lo, hi-lo, fileBlocks,
		res.MarkerHit, res.PresentCount < hi-lo)
	m.mu.Unlock()
	if action.Pages() > 0 {
		missing := f.fc.FastMissingRuns(tl, action.Lo, action.Hi)
		_, _ = f.prefetchRuns(tl, tl.Now(), missing, action.MarkerAt, telemetry.OriginReadahead, telemetry.ArmNone)
	}

	f.waitInflight(tl, res.ReadyAt, n)
	if dst != nil {
		want := int64(len(dst))
		if want > n {
			want = n
		}
		f.ino.ReadAt(dst[:want], off)
	}
	return nil
}
