// Package pagecache implements the simulated OS page cache that CROSS-OS
// extends.
//
// Structure mirrors what the paper's analysis depends on:
//
//   - Each file has a page index (Linux's per-inode Xarray: chunked
//     64-slot nodes of frame ids, see frames.go) under one virtual
//     reader-writer lock. Regular I/O lookups take it shared; inserts and
//     deletes take it exclusive. This is the "single big per-file
//     cache-tree lock" whose contention §3.2 measures.
//   - Alongside the index, CROSS-OS maintains a per-inode block bitmap with
//     its own virtual rw-lock: the delineated fast path (§4.4) that
//     readahead_info queries instead of walking the tree.
//   - Page frames live in the cache's frame table (the mem_map, frames.go)
//     and are linked on global active/inactive LRU lists. Allocation beyond the
//     high watermark wakes background reclaim (kswapd, charged to its own
//     virtual worker); allocation beyond capacity forces direct reclaim,
//     charged to the allocating thread — which is how aggressive
//     prefetching pollutes the cache and slows everyone down (§5.2).
//
// Pages carry a ready time: asynchronously prefetched pages are present in
// the index immediately but a reader arriving before the device completes
// waits for the remainder, modeling the overlap of prefetch and compute.
//
// Those locks are virtual: RWLedgers charge them in virtual time. On the
// host the whole cache is guarded by one mutex (Cache.mu). Every exported
// method takes it, and so does reclaim, which runs after the insert that
// needed it has let go; every other unexported method runs with it held.
package pagecache

import (
	"sync"
	"sync/atomic"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Config sizes the cache.
type Config struct {
	// BlockSize is the page size in bytes.
	BlockSize int64
	// CapacityPages is the memory budget in pages.
	CapacityPages int64
	// Costs is the CPU cost table.
	Costs simtime.Costs
}

// FlushFn writes back a dirty run of a file's pages, returning the
// virtual completion time. Installed by the VFS layer. On error the
// cache keeps the affected pages dirty (re-inserting evicted victims)
// so a failed writeback never silently discards unwritten data. It runs
// with the cache's lock held, so it must not call back into the cache.
type FlushFn func(at simtime.Time, inoID, lo, hi int64) (simtime.Time, error)

// Cache is the global page cache.
type Cache struct {
	cfg   Config
	flush FlushFn

	// rec, when non-nil, receives insertion/removal counters and the
	// prefetch-effectiveness accounting (telemetry opt-in).
	rec *telemetry.Recorder
	// score, when non-nil, receives the windowed per-inode/per-tenant
	// scorecard feed (issued/used/wasted/read/timeliness). Independent of
	// rec so the scorecards can run without the full recorder.
	score *telemetry.Scorecard

	// mu guards everything below but the counters, which are written
	// under it and read without it.
	mu sync.Mutex

	// frames holds every page frame; files and tenants name the objects a
	// frame refers to, so the frames themselves carry no pointers.
	frames  frameTable
	files   slotTable[FileCache]
	tenants slotTable[tenantAccount]

	// LRU state: one active and one inactive list.
	active    pageList
	inactive  pageList
	nInactive int64 // inactive population (rotation guard)

	// inodes maps an inode to its per-file cache state.
	inodes map[int64]*FileCache

	// Tenant page accounting (see tenant.go): every page is charged to
	// one account; nOverSoft counts accounts over their soft budget and
	// gates the reclaim victim bias.
	tenantByID map[int]*tenantAccount
	nOverSoft  int64

	kswapd *simtime.WorkerPool

	used           atomic.Int64
	hits           atomic.Int64
	misses         atomic.Int64
	dirty          atomic.Int64
	evictions      atomic.Int64
	directReclaim  atomic.Int64
	kswapdRuns     atomic.Int64
	writebacks     atomic.Int64
	tenantReclaims atomic.Int64
}

// New returns a cache with the given configuration. flush may be nil if no
// file will ever have dirty pages.
func New(cfg Config, flush FlushFn) *Cache {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4096
	}
	if cfg.CapacityPages <= 0 {
		cfg.CapacityPages = 1 << 20
	}
	c := &Cache{
		cfg:        cfg,
		flush:      flush,
		kswapd:     simtime.NewWorkerPool(1, 0), // one kswapd
		tenantByID: make(map[int]*tenantAccount),
		inodes:     make(map[int64]*FileCache),
	}
	return c
}

// SetFlushFn installs the dirty-page writeback hook.
func (c *Cache) SetFlushFn(f FlushFn) { c.flush = f }

// SetTelemetry installs the telemetry recorder (nil disables).
func (c *Cache) SetTelemetry(rec *telemetry.Recorder) { c.rec = rec }

// SetScorecard installs the windowed scorecard sink (nil disables).
func (c *Cache) SetScorecard(sc *telemetry.Scorecard) { c.score = sc }

// Capacity reports the memory budget in pages.
func (c *Cache) Capacity() int64 { return c.cfg.CapacityPages }

// Used reports resident pages.
func (c *Cache) Used() int64 { return c.used.Load() }

// Dirty reports resident pages awaiting writeback.
func (c *Cache) Dirty() int64 { return c.dirty.Load() }

// Free reports pages available before the budget is exhausted.
func (c *Cache) Free() int64 {
	f := c.cfg.CapacityPages - c.used.Load()
	if f < 0 {
		return 0
	}
	return f
}

func (c *Cache) highWater() int64 { return c.cfg.CapacityPages * 15 / 16 }
func (c *Cache) lowWater() int64  { return c.cfg.CapacityPages * 7 / 8 }

// File returns (creating if needed) the per-inode cache state.
func (c *Cache) File(inoID int64) *FileCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	fc, ok := c.inodes[inoID]
	if !ok {
		fc = &FileCache{
			cache:      c,
			inoID:      inoID,
			treeLedger: simtime.NewRWLedger("tree"),
			bmLedger:   simtime.NewRWLedger("bitmap"),
		}
		c.inodes[inoID] = fc
	}
	return fc
}

// DropFile discards all cached pages of an inode (file deletion).
func (c *Cache) DropFile(tl *simtime.Timeline, inoID int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fc := c.inodes[inoID]
	delete(c.inodes, inoID)
	if fc != nil {
		fc.removeRange(tl, 0, fc.bm.Len(), false)
		fc.dropped = true
		fc.retireIfDead()
	}
}

// DropAll evicts every resident page (echo 3 > /proc/sys/vm/drop_caches),
// preserving the per-file state objects so open handles stay valid.
func (c *Cache) DropAll(tl *simtime.Timeline) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, fc := range c.inodes {
		fc.removeRange(tl, 0, fc.bm.Len(), false)
	}
}

// Stats is a snapshot of global cache counters.
type Stats struct {
	Capacity       int64
	Used           int64
	Dirty          int64
	Hits           int64
	Misses         int64
	Evictions      int64
	DirectReclaim  int64
	KswapdRuns     int64
	Writebacks     int64
	TenantReclaims int64
}

// MissPercent reports cache misses as a percentage of lookups.
func (s Stats) MissPercent() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return 100 * float64(s.Misses) / float64(total)
}

// Stats snapshots the global counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Capacity:       c.cfg.CapacityPages,
		Used:           c.used.Load(),
		Dirty:          c.dirty.Load(),
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		DirectReclaim:  c.directReclaim.Load(),
		KswapdRuns:     c.kswapdRuns.Load(),
		Writebacks:     c.writebacks.Load(),
		TenantReclaims: c.tenantReclaims.Load(),
	}
}

// page is one page frame: a pointer-free value in the frame table, named
// by a frameID, 40 bytes. readyAt, issuedAt, idx, file and tacct are set
// by the insert and kept until the frame is released; prev and next are
// the LRU linkage; the small fields share one flag word (see the flag
// constants below).
type page struct {
	readyAt simtime.Time
	// issuedAt is the virtual time the page was inserted (for prefetched
	// pages: when the prefetch was issued) — the anchor of the
	// prefetch-to-first-use timeliness measurement.
	issuedAt simtime.Time
	// idx is the page's index in its file, below MaxPages.
	idx uint32
	// LRU linkage. On the free list, next is the free-list link.
	prev, next frameID
	// file and tacct are the slots (Cache.files, Cache.tenants) of the
	// owning FileCache and of the tenant account the frame is charged to;
	// eviction credits the same account, so the per-tenant ledgers
	// partition global residency exactly.
	file  uint32
	tacct uint32
	flags uint32
}

// MaxPages bounds a file's page indexes, so that a frame holds its index
// in 32 bits: 2^32 blocks, ext4's logical block limit. The VFS refuses
// any write or file that would reach past it (vfs.ErrFileTooLarge).
const MaxPages = 1 << 32

// The flag word (page.flags), low bits first:
//
//   - credit: the insertion origin (telemetry.Origin) + 1 while the page's
//     prefetch credit is outstanding, 0 once the first lookup to read it
//     (used) or eviction (wasted) has booked it; demand-origin pages never
//     carry credit.
//   - state: the LRU list the frame is linked on.
//   - accessed: set by a lookup (the first access; a second one promotes
//     an inactive page), cleared by demotion and rotation.
//   - marker (PG_readahead): set by the insert, cleared by the lookup that
//     crosses it.
//   - dirty: the page awaits writeback.
//   - arm: the predictor arm (telemetry.Arm) whose candidate issued the
//     prefetch, ArmNone when none did; meaningful only while the page
//     carries credit.
//   - wbFails: failed writeback attempts; at maxWritebackAttempts the page
//     is dropped and the loss surfaced via telemetry.
const (
	flagCredit   uint32 = 7 << 0
	flagState    uint32 = 3 << 3
	flagAccessed uint32 = 1 << 5
	flagMarker   uint32 = 1 << 6
	flagDirty    uint32 = 1 << 7
	flagArm      uint32 = 7 << armShift
	flagWbFails  uint32 = 3 << wbFailsShift

	armShift     = 8
	wbFailsShift = 11
)

// Each field fits its bits: an origin + 1, an arm and a failure count
// that would not is a compile error here.
const (
	_ = uint(flagCredit - uint32(telemetry.NumOrigins))
	_ = uint(flagArm>>armShift + 1 - uint32(telemetry.NumArms))
	_ = uint(flagWbFails>>wbFailsShift - maxWritebackAttempts)
)

// page states, in place in the flag word.
const (
	pageUnlinked uint32 = iota << 3
	pageInactive
	pageActive
)

// setFlags replaces the bits of mask with val, a subset of mask, and
// returns the word as it was.
func (p *page) setFlags(mask, val uint32) uint32 {
	old := p.flags
	p.flags = old&^mask | val
	return old
}

// creditOf decodes the origin and arm of a word that carries credit.
func creditOf(f uint32) (telemetry.Origin, telemetry.Arm) {
	return telemetry.Origin(f&flagCredit - 1), telemetry.Arm(f & flagArm >> armShift)
}

// pageList is an intrusive doubly linked LRU list of frames. Head is most
// recent.
type pageList struct {
	head, tail frameID
}

func (l *pageList) pushHead(ft *frameTable, id frameID) {
	p := ft.at(id)
	p.prev, p.next = 0, l.head
	if l.head != 0 {
		ft.at(l.head).prev = id
	}
	l.head = id
	if l.tail == 0 {
		l.tail = id
	}
}

func (l *pageList) remove(ft *frameTable, id frameID) {
	p := ft.at(id)
	if p.prev != 0 {
		ft.at(p.prev).next = p.next
	} else {
		l.head = p.next
	}
	if p.next != 0 {
		ft.at(p.next).prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = 0, 0
}
