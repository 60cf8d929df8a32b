package pagecache

import (
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// FileCache is the per-inode cache state: the page index (Xarray model)
// with its virtual tree lock, and the CROSS-OS cache bitmap with its own
// virtual lock.
//
// The delineation argument (§4.4) is a virtual-time one: treeLedger and
// bmLedger charge the paper's lock costs, and the bitmap queries
// (FastMissingRuns, ExportBitmap) charge only bmLedger, never the tree
// lock. On the host, index and bitmap alike are guarded by the cache's one
// lock.
type FileCache struct {
	cache *Cache
	inoID int64

	treeLedger *simtime.RWLedger // virtual page-cache tree lock
	bmLedger   *simtime.RWLedger // virtual bitmap lock (fast path)
	nodes      []*indexNode      // page index: nodes[idx>>6].slots[idx&63]
	bm         bitmap.Bitmap     // one bit per resident page

	// slot names this file in Cache.files for its frames; 0 while it has
	// none. dropped is set by DropFile.
	slot    uint32
	dropped bool

	hits   atomic.Int64
	misses atomic.Int64
}

// frameSlot returns the file's slot in Cache.files, taking one on the
// first insert — and again if a handle that outlived DropFile inserts after
// the slot was given back.
func (fc *FileCache) frameSlot() uint32 {
	if fc.slot == 0 {
		fc.slot = fc.cache.files.add(fc)
	}
	return fc.slot
}

// retireIfDead gives the file's slot back once a dropped file holds no
// page, so file churn does not grow Cache.files.
func (fc *FileCache) retireIfDead() {
	if fc.dropped && fc.slot != 0 && fc.bm.Count() == 0 {
		fc.cache.files.release(fc.slot)
		fc.slot = 0
	}
}

// InoID reports the inode this state belongs to.
func (fc *FileCache) InoID() int64 { return fc.inoID }

// Span reports the extent of the file's bitmap in blocks.
func (fc *FileCache) Span() int64 {
	fc.cache.mu.Lock()
	defer fc.cache.mu.Unlock()
	return fc.bm.Len()
}

// CachedPages reports how many of the file's pages are resident.
func (fc *FileCache) CachedPages() int64 {
	fc.cache.mu.Lock()
	defer fc.cache.mu.Unlock()
	return fc.bm.Count()
}

// Hits and Misses report the per-file lookup counters.
func (fc *FileCache) Hits() int64   { return fc.hits.Load() }
func (fc *FileCache) Misses() int64 { return fc.misses.Load() }

// NonResidentSpan trims [lo, hi) to the outermost pages NOT resident,
// reading the CROSS-OS bitmap (§4.2) a word at a time: the same exported
// truth a readahead_info caller sees, at per-page granularity and zero
// virtual cost. Interior resident pages are not split out. Returns
// (hi, hi) when the whole span is resident.
func (fc *FileCache) NonResidentSpan(lo, hi int64) (int64, int64) {
	fc.cache.mu.Lock()
	defer fc.cache.mu.Unlock()
	return fc.bm.TrimSet(lo, hi)
}

// TreeLockStats exposes the virtual tree-lock contention counters.
func (fc *FileCache) TreeLockStats() simtime.RWLedgerStats { return fc.treeLedger.Stats() }

// LookupResult describes the cache state of a requested page range. A
// result can be reused across lookups via LookupRangeInto, which recycles
// Present so steady-state lookups allocate nothing.
type LookupResult struct {
	// Present marks which pages of [lo,hi) were resident (index 0 = lo).
	Present []bool
	// PresentCount is the number of resident pages.
	PresentCount int64
	// ReadyAt is the latest ready time among resident pages — a reader
	// consuming them must wait until then (in-flight prefetch).
	ReadyAt simtime.Time
	// MarkerHit reports that a resident page carried the PG_readahead
	// marker; the lookup cleared it.
	MarkerHit bool
	// Tenant is an INPUT hint: the tenant to attribute this lookup's
	// read-side scorecard traffic to. LookupRangeInto does not reset it,
	// so callers reusing pooled results must set it per lookup (the ring
	// path sets the SQE's tenant; the sync path sets 0).
	Tenant int
}

// LookupRange walks the page index for pages [lo, hi) on the regular I/O
// (slow) path: it charges the tree lock shared for the walk, counts hits
// and misses, touches LRU state, and clears any readahead marker it
// crosses. tl may be nil for timeless inspection.
func (fc *FileCache) LookupRange(tl *simtime.Timeline, lo, hi int64) LookupResult {
	var res LookupResult
	fc.LookupRangeInto(tl, lo, hi, &res)
	return res
}

// LookupRangeInto is LookupRange writing into a caller-provided (and
// typically reused) result.
func (fc *FileCache) LookupRangeInto(tl *simtime.Timeline, lo, hi int64, res *LookupResult) {
	n := hi - lo
	res.Present = res.Present[:0]
	res.PresentCount, res.ReadyAt, res.MarkerHit = 0, 0, false
	if n <= 0 {
		return
	}
	var walk *telemetry.Span
	if tl != nil {
		start := tl.Now()
		fc.treeLedger.Read(tl, simtime.Duration(n)*fc.cache.cfg.Costs.TreeLookup)
		walk = telemetry.Current(tl).Child("cache.tree_walk", telemetry.CatLock, start, tl.Now())
	}

	if cap(res.Present) < int(n) {
		res.Present = make([]bool, n)
	} else {
		res.Present = res.Present[:n]
		for i := range res.Present {
			res.Present[i] = false
		}
	}
	var prefetchHits, latePages int64
	var now simtime.Time
	if tl != nil {
		now = tl.Now()
	}
	c := fc.cache
	rec := c.rec
	score := c.score
	// Contiguous run of late-consumed pages (prefetch credit consumed
	// while the backing I/O was still in flight); emitted as exact
	// OutcomeLatePrefetch events as each run closes.
	lateStart, lateEnd := int64(-1), int64(-1)
	var promoted int64
	c.mu.Lock()
	for base := max(lo, 0) &^ nodeMask; base < hi; base += nodeSlots {
		node := fc.nodeAt(base >> nodeShift)
		if node == nil {
			continue
		}
		s0, s1 := slotRange(base, lo, hi)
		for s := s0; s < s1; s++ {
			id := node.slots[s]
			if id == 0 {
				continue
			}
			i := base + int64(s)
			p := c.frames.at(id)
			res.Present[i-lo] = true
			res.PresentCount++
			if p.readyAt > res.ReadyAt {
				res.ReadyAt = p.readyAt
			}
			// One write consumes the marker and the credit and sets accessed.
			f := p.setFlags(flagMarker|flagCredit|flagAccessed, flagAccessed)
			if f&flagMarker != 0 {
				res.MarkerHit = true
			}
			if f&flagCredit != 0 {
				// First use of a prefetched page: per-origin used credit plus
				// the prefetch-to-first-use timeliness sample.
				prefetchHits++
				org, arm := creditOf(f)
				rec.OriginUsed(org, 1)
				rec.ArmUsed(arm, 1)
				tenant := c.tenants.at(p.tacct).id
				if tl != nil {
					lat := int64(now.Sub(p.issuedAt))
					rec.Observe(telemetry.HistPrefetchToUse, lat)
					score.Used(now, fc.inoID, tenant, org, lat)
					if p.readyAt > now {
						latePages++
						if lateStart < 0 {
							lateStart, lateEnd = i, i+1
						} else if i == lateEnd {
							lateEnd = i + 1
						} else {
							rec.Event(now, telemetry.OutcomeLatePrefetch, fc.inoID, lateStart, lateEnd)
							lateStart, lateEnd = i, i+1
						}
					}
				} else {
					score.Used(now, fc.inoID, tenant, org, 0)
				}
			}
			// LRU aging: the first access flipped accessed above, a second
			// access promotes an inactive page.
			if f&flagAccessed != 0 && f&flagState == pageInactive {
				c.promote(id, p)
				promoted++
			}
		}
	}
	c.mu.Unlock()
	if lateStart >= 0 {
		rec.Event(now, telemetry.OutcomeLatePrefetch, fc.inoID, lateStart, lateEnd)
	}
	walk.Annotate("hit_pages", res.PresentCount)
	walk.Annotate("miss_pages", n-res.PresentCount)
	if prefetchHits > 0 {
		rec.Add(telemetry.CtrPrefetchHitPages, prefetchHits)
	}
	score.Read(now, fc.inoID, res.Tenant, n, prefetchHits, latePages)

	fc.hits.Add(res.PresentCount)
	fc.misses.Add(n - res.PresentCount)
	c.hits.Add(res.PresentCount)
	c.misses.Add(n - res.PresentCount)

	if tl != nil && promoted > 0 {
		tl.Advance(simtime.Duration(promoted) * c.cfg.Costs.LRUOp)
	}
}

// InsertOptions modify InsertRange behaviour.
type InsertOptions struct {
	// ReadyAt is when the pages' backing I/O completes (0 = already done).
	ReadyAt simtime.Time
	// Dirty marks the pages as needing writeback.
	Dirty bool
	// MarkerAt places the PG_readahead marker on this page (-1 = none).
	MarkerAt int64
	// Origin tags the insertion's provenance for the telemetry
	// effectiveness accounting. The zero value (OriginDemand) means "not a
	// prefetch"; any prefetch origin arms the page's used/wasted credit.
	Origin telemetry.Origin
	// Tenant charges the inserted pages to this tenant's memory account
	// (budgets, targeted reclaim). Zero is the shared default account.
	Tenant int
	// Arm tags which predictor arm's candidate issued the prefetch
	// (ArmNone when no ensemble arm drove it) — the second provenance
	// axis the per-arm effectiveness partition audits.
	Arm telemetry.Arm
}

// InsertRange installs pages [lo, hi), charging the tree lock exclusive,
// allocating frames (which may trigger reclaim, charged per policy), and
// updating the per-inode bitmap once after the walk (§4.4). It returns how
// many pages were newly inserted (already-present pages are left alone,
// though Dirty is ORed in).
func (fc *FileCache) InsertRange(tl *simtime.Timeline, lo, hi int64, opt InsertOptions) int64 {
	n := hi - lo
	if n <= 0 {
		return 0
	}
	if hi > MaxPages {
		panic("pagecache: page index beyond MaxPages")
	}
	costs := fc.cache.cfg.Costs
	if tl != nil {
		start := tl.Now()
		// As in Linux, insertion batches acquire and drop the tree lock
		// per pagevec, letting concurrent lookups interleave with a
		// large (prefetch) insert instead of stalling for its entirety.
		chargeBatched(n, func(batch int64) {
			fc.treeLedger.Write(tl, simtime.Duration(batch)*costs.TreeInsert)
		})
		telemetry.Current(tl).Child("cache.tree_insert", telemetry.CatLock, start, tl.Now()).
			Annotate("pages", n)
		tl.Advance(simtime.Duration(n) * costs.PageAlloc)
	}

	var now simtime.Time
	if tl != nil {
		now = tl.Now()
	}
	c := fc.cache
	// A fresh frame's flag word: unlinked, not accessed, no failed
	// writeback; the marker is set per page.
	flags := uint32(opt.Arm) << armShift
	if opt.Dirty {
		flags |= flagDirty
	}
	if opt.Origin.IsPrefetch() {
		flags |= uint32(opt.Origin) + 1
	}
	var inserted int64
	var batch [nodeSlots]frameID
	c.mu.Lock()
	acct := c.tenantAccountFor(opt.Tenant)
	slot := fc.slot
	for base := max(lo, 0) &^ nodeMask; base < hi; base += nodeSlots {
		node := fc.nodeFor(base >> nodeShift)
		s0, s1 := slotRange(base, lo, hi)
		missing := 0
		for s := s0; s < s1; s++ {
			id := node.slots[s]
			if id == 0 {
				missing++
				continue
			}
			p := c.frames.at(id)
			if opt.Dirty && p.setFlags(flagDirty, flagDirty)&flagDirty == 0 {
				c.dirty.Add(1)
			}
			// An already-present page keeps its earlier ready time: a
			// redundant re-fetch doesn't delay existing readers.
			if base+int64(s) == opt.MarkerAt {
				p.setFlags(flagMarker, flagMarker)
			}
		}
		if missing == 0 {
			continue
		}
		// The node's missing pages are allocated, filled and linked as
		// one batch.
		if slot == 0 {
			slot = fc.frameSlot()
		}
		fresh := batch[:missing]
		c.frames.alloc(fresh)
		k := 0
		for s := s0; s < s1; s++ {
			if node.slots[s] != 0 {
				continue
			}
			id := fresh[k]
			k++
			i := base + int64(s)
			p := c.frames.at(id)
			p.idx, p.readyAt, p.issuedAt = uint32(i), opt.ReadyAt, now
			p.file, p.tacct = slot, acct.slot
			p.flags = flags
			if i == opt.MarkerAt {
				p.flags |= flagMarker
			}
			node.slots[s] = id
		}
		node.n += int32(missing)
		if opt.Dirty {
			c.dirty.Add(int64(missing))
		}
		c.link(fresh)
		inserted += int64(missing)
	}
	if inserted > 0 {
		// One bitmap update after the whole walk, under the bitmap lock.
		if tl != nil {
			start := tl.Now()
			fc.bmLedger.Write(tl, costs.BitmapOp*simtime.Duration(1+n/64))
			telemetry.Current(tl).Child("cache.bitmap_update", telemetry.CatLock, start, tl.Now())
		}
		fc.bm.SetRange(lo, hi)
		// SetRange may set bits for pages that were already present —
		// that is exactly what the kernel bitmap would show.
		c.used.Add(inserted)
		c.chargeTenant(acct, inserted)
	}
	c.mu.Unlock()

	if inserted > 0 {
		c.rec.Add(telemetry.CtrCacheInsertedPages, inserted)
		if opt.Dirty {
			c.rec.Add(telemetry.CtrCacheDirtyInsertedPages, inserted)
		}
		if opt.Origin.IsPrefetch() {
			c.rec.Add(telemetry.CtrCachePrefetchInsertedPages, inserted)
			c.rec.ArmInserted(opt.Arm, inserted)
		}
		c.rec.OriginInserted(opt.Origin, inserted)
		c.score.Issued(now, fc.inoID, opt.Tenant, opt.Origin, inserted)
		c.reclaimIfNeeded(tl)
		c.tenantReclaimIfNeeded(tl, acct)
	}
	return inserted
}

// SetDirtyRange marks resident pages [lo,hi) dirty (buffered writes).
func (fc *FileCache) SetDirtyRange(tl *simtime.Timeline, lo, hi int64) {
	if tl != nil {
		fc.treeLedger.Write(tl, simtime.Duration(hi-lo)*fc.cache.cfg.Costs.TreeLookup)
	}
	c := fc.cache
	c.mu.Lock()
	for base := max(lo, 0) &^ nodeMask; base < hi; base += nodeSlots {
		node := fc.nodeAt(base >> nodeShift)
		if node == nil {
			continue
		}
		s0, s1 := slotRange(base, lo, hi)
		for _, id := range node.slots[s0:s1] {
			if id != 0 && c.frames.at(id).setFlags(flagDirty, flagDirty)&flagDirty == 0 {
				c.dirty.Add(1)
			}
		}
	}
	c.mu.Unlock()
}

// RemoveRange evicts pages [lo, hi) (fadvise DONTNEED, truncation),
// writing back dirty pages. It returns the number of pages removed.
func (fc *FileCache) RemoveRange(tl *simtime.Timeline, lo, hi int64) int64 {
	fc.cache.mu.Lock()
	defer fc.cache.mu.Unlock()
	return fc.removeRange(tl, lo, hi, false)
}

// RemoveColdRange is RemoveRange sparing the pages on the active list: those
// a lookup has re-used since it inserted them, which is per-page history the
// caller cannot see (the CROSS-OS cold drop, DESIGN.md §24). A spared page
// stays in the index and the bitmap, on its list, charged to its tenant.
func (fc *FileCache) RemoveColdRange(tl *simtime.Timeline, lo, hi int64) int64 {
	fc.cache.mu.Lock()
	defer fc.cache.mu.Unlock()
	return fc.removeRange(tl, lo, hi, true)
}

// removeRange is the body of both. With nothing spared it is RemoveRange to
// the byte: one ClearRange, the same ledger bookings, the same telemetry.
func (fc *FileCache) removeRange(tl *simtime.Timeline, lo, hi int64, spareActive bool) int64 {
	if hi <= lo {
		return 0
	}
	c := fc.cache
	sc := scratchPool.Get().(*evictScratch)
	defer scratchPool.Put(sc)
	victims := sc.victims[:0]
	spared := false
	for base := max(lo, 0) &^ nodeMask; base < hi; base += nodeSlots {
		chunk := base >> nodeShift
		if chunk >= int64(len(fc.nodes)) {
			break
		}
		node := fc.nodes[chunk]
		if node == nil {
			continue
		}
		s0, s1 := slotRange(base, lo, hi)
		for s := s0; s < s1; s++ {
			id := node.slots[s]
			if id == 0 {
				continue
			}
			if spareActive && c.frames.at(id).flags&flagState == pageActive {
				spared = true
				continue
			}
			victims = append(victims, id)
			node.slots[s] = 0
			node.n--
		}
		if node.n == 0 {
			fc.nodes[chunk] = nil
			nodePool.Put(node)
		}
	}
	sc.victims = victims[:0]
	if len(victims) == 0 {
		return 0
	}
	if spared {
		// The range keeps pages: clear the victims' bits one by one.
		for _, id := range victims {
			fc.bm.Clear(int64(c.frames.at(id).idx))
		}
	} else {
		fc.bm.ClearRange(lo, hi)
	}
	fc.retireIfDead()
	if tl != nil {
		chargeBatched(int64(len(victims)), func(batch int64) {
			fc.treeLedger.Write(tl, simtime.Duration(batch)*c.cfg.Costs.TreeDelete)
		})
		fc.bmLedger.Write(tl, c.cfg.Costs.BitmapOp*simtime.Duration(1+(hi-lo)/64))
	}
	c.finishEviction(tl, fc, victims, true, sc)
	return int64(len(victims))
}

// FastMissingRuns answers "which of [lo, hi) needs fetching?" via the
// bitmap fast path: it charges only the bitmap lock shared, never the
// tree lock. This is the readahead_info lookup (§4.4).
func (fc *FileCache) FastMissingRuns(tl *simtime.Timeline, lo, hi int64) []bitmap.Run {
	return fc.AppendFastMissingRuns(tl, nil, lo, hi)
}

// AppendFastMissingRuns is FastMissingRuns appending into a caller-scratch
// slice (allocation-free when dst has capacity).
func (fc *FileCache) AppendFastMissingRuns(tl *simtime.Timeline, dst []bitmap.Run, lo, hi int64) []bitmap.Run {
	if tl != nil {
		start := tl.Now()
		fc.bmLedger.Read(tl, fc.cache.cfg.Costs.BitmapOp*simtime.Duration(1+(hi-lo)/64))
		telemetry.Current(tl).Child("cache.bitmap_lookup", telemetry.CatLock, start, tl.Now())
	}
	fc.cache.mu.Lock()
	defer fc.cache.mu.Unlock()
	return fc.bm.AppendMissingRuns(dst, lo, hi)
}

// ExportBitmap makes dst a snapshot of the bitmap window [lo, hi),
// charging the bitmap lock shared plus per-word copy cost (the selective
// export to CROSS-LIB). An empty window costs nothing and leaves dst empty.
func (fc *FileCache) ExportBitmap(tl *simtime.Timeline, lo, hi int64, dst *bitmap.Window) {
	if hi > lo && tl != nil {
		words := simtime.Duration(1 + (hi-lo)/64)
		start := tl.Now()
		fc.bmLedger.Read(tl, fc.cache.cfg.Costs.BitmapOp*words)
		telemetry.Current(tl).Child("cache.bitmap_export", telemetry.CatLock, start, tl.Now())
		tl.Advance(fc.cache.cfg.Costs.BitmapCopy * words)
	}
	fc.cache.mu.Lock()
	defer fc.cache.mu.Unlock()
	fc.bm.CopyWindow(dst, lo, hi)
}

// WalkResident calls fn for every resident page index in [lo, hi) while
// holding the tree lock exclusive for the whole walk — the fincore model
// (§2.1): expensive, coarse, and obstructive.
func (fc *FileCache) WalkResident(tl *simtime.Timeline, lo, hi int64, fn func(idx int64)) {
	if tl != nil {
		start := tl.Now()
		fc.treeLedger.Write(tl, simtime.Duration(hi-lo)*fc.cache.cfg.Costs.FincoreWalk)
		telemetry.Current(tl).Child("cache.fincore_walk", telemetry.CatLock, start, tl.Now())
	}
	fc.cache.mu.Lock()
	defer fc.cache.mu.Unlock()
	for base := max(lo, 0) &^ nodeMask; base < hi; base += nodeSlots {
		node := fc.nodeAt(base >> nodeShift)
		if node == nil {
			continue
		}
		s0, s1 := slotRange(base, lo, hi)
		for s := s0; s < s1; s++ {
			if node.slots[s] != 0 {
				fn(base + int64(s))
			}
		}
	}
}

// ledgerBatch is the pagevec size for batched tree-lock acquisitions.
const ledgerBatch = 64

// chargeBatched invokes charge once per batch of up to ledgerBatch items.
func chargeBatched(n int64, charge func(batch int64)) {
	for n > 0 {
		b := n
		if b > ledgerBatch {
			b = ledgerBatch
		}
		charge(b)
		n -= b
	}
}

// CollectDirtyRuns returns the contiguous runs of dirty resident pages in
// [lo, hi) and clears their dirty flags (fsync harvesting). The caller is
// responsible for issuing the writeback I/O.
func (fc *FileCache) CollectDirtyRuns(tl *simtime.Timeline, lo, hi int64) []bitmap.Run {
	if tl != nil {
		start := tl.Now()
		fc.treeLedger.Read(tl, simtime.Duration(hi-lo)*fc.cache.cfg.Costs.TreeLookup)
		telemetry.Current(tl).Child("cache.dirty_scan", telemetry.CatLock, start, tl.Now())
	}
	var runs []bitmap.Run
	c := fc.cache
	c.mu.Lock()
	// The open run is [runStart, runEnd); a clean or absent page closes it.
	runStart, runEnd := int64(-1), int64(-1)
	for base := max(lo, 0) &^ nodeMask; base < hi; base += nodeSlots {
		node := fc.nodeAt(base >> nodeShift)
		if node == nil {
			continue
		}
		s0, s1 := slotRange(base, lo, hi)
		for s := s0; s < s1; s++ {
			id := node.slots[s]
			if id == 0 || c.frames.at(id).setFlags(flagDirty, 0)&flagDirty == 0 {
				continue
			}
			c.dirty.Add(-1)
			i := base + int64(s)
			if i != runEnd {
				if runStart >= 0 {
					runs = append(runs, bitmap.Run{Lo: runStart, Hi: runEnd})
				}
				runStart = i
			}
			runEnd = i + 1
		}
	}
	if runStart >= 0 {
		runs = append(runs, bitmap.Run{Lo: runStart, Hi: runEnd})
	}
	c.mu.Unlock()
	return runs
}
