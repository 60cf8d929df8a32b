package crosslib

import (
	"repro/internal/bitmap"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Mapping is CROSS-LIB's mmap support (§4.6). Intercepting every load and
// store is prohibitively expensive, so the library instead has a background
// helper periodically export the kernel's cache bitmap and infer the
// touched frontier from it: newly resident pages reveal where the
// application is reading, and the helper prefetches ahead of that frontier
// with a window that grows while the guess keeps being right. The fields
// past km are under the runtime's mu.
type Mapping struct {
	f  *File
	km *vfs.Mapping

	loads    int64
	frontier int64 // highest block seen resident
	window   int64 // current prefetch window in blocks
}

// mmapScanOps is how many loads of a mapping pass between two bitmap
// scans.
const mmapScanOps = 64

// Mmap maps a file through the runtime.
func (rt *Runtime) Mmap(tl *simtime.Timeline, f *File) *Mapping {
	return &Mapping{f: f, km: rt.v.Mmap(tl, f.kf), window: 32}
}

// Kernel exposes the kernel mapping (APPonly workloads call Madvise on it).
func (m *Mapping) Kernel() *vfs.Mapping { return m.km }

// Load touches [off, off+n), optionally copying into dst. Every
// mmapScanOps loads, a background bitmap scan runs the prefetch
// heuristic. A demand (fault-in) device error is returned.
func (m *Mapping) Load(tl *simtime.Timeline, off, n int64, dst []byte) error {
	root := m.f.rt.tr.Root(tl, telemetry.OpMmapLoad, m.f.kf.Inode().ID())
	defer root.Finish(tl)
	root.Annotate("off", off)
	root.Annotate("bytes", n)
	err := m.km.Load(tl, off, n, dst)
	rt := m.f.rt
	if !rt.opt.Enabled {
		return err
	}
	rt.mu.Lock()
	m.loads++
	scan := m.loads%mmapScanOps == 0
	rt.mu.Unlock()
	if scan {
		m.scheduleScan(tl)
	}
	return err
}

// scheduleScan runs one bitmap-driven prefetch step on a helper thread.
func (m *Mapping) scheduleScan(tl *simtime.Timeline) {
	rt := m.f.rt
	kf := m.f.kf
	sf := m.f.sf
	rt.background(tl.Now(), telemetry.OpMmapScan, kf.Inode().ID(), func(wtl *simtime.Timeline) {
		fileBlocks := kf.Inode().Blocks()
		if fileBlocks == 0 {
			return
		}
		// Export-only readahead_info: cheap residency snapshot.
		snap := windowPool.Get().(*bitmap.Window)
		defer windowPool.Put(snap)
		kf.ReadaheadInfo(wtl, vfs.CacheInfoRequest{BitmapHi: fileBlocks}, snap)

		rt.mu.Lock()
		// Find the residency frontier.
		var frontier int64 = -1
		for _, r := range snap.AppendPresentRuns(nil, 0, fileBlocks) {
			if r.Hi > frontier {
				frontier = r.Hi
			}
		}
		if frontier >= 0 {
			m.frontier = frontier
		}
		// Classify by residency density in a recent window behind the
		// frontier: a sequential reader (plus our own prefetch ahead of
		// it) leaves that window dense even while eviction hollows out
		// the stream's tail; random touching over a big file leaves it
		// sparse. (Keying off frontier motion alone would feed back on
		// the scanner's own prefetches; whole-file density would be
		// defeated by eviction.)
		dense := false
		if frontier > 0 {
			wlo := frontier - 4*m.window
			if wlo < 0 {
				wlo = 0
			}
			resident := snap.CountRange(wlo, frontier)
			dense = float64(resident) > 0.6*float64(frontier-wlo)
		}
		if dense {
			m.window *= 2
			if max := rt.opt.MaxPrefetchBytes / rt.v.BlockSize(); m.window > max {
				m.window = max
			}
		} else {
			m.window /= 2
			if m.window < 8 {
				m.window = 8
			}
		}
		lo, window := m.frontier, m.window
		rt.mu.Unlock()

		if !dense || lo < 0 || lo >= fileBlocks {
			return
		}
		// The scan's way up (DESIGN.md §20): breaker, budget halt, clamp,
		// elision, then the shared issuer on this helper's own timeline.
		if !rt.breakerAdmits(wtl, sf, lo, lo+window) || rt.budgetGate(wtl, sf, lo, lo+window) == budgetHalt {
			return
		}
		lo, hi := clampToFile(kf, lo, window)
		var runBuf [runBufLen]bitmap.Run
		runs, _ := rt.missingRuns(wtl, sf, runBuf[:0], lo, hi)
		rt.issueRuns(wtl, kf, sf, runs, false, telemetry.ArmNone)
	})
}
