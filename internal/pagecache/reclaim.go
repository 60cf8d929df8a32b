package pagecache

import (
	"cmp"
	"slices"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// link puts freshly inserted pages on the inactive list (Linux admits new
// file pages to inactive; promotion to active happens on re-access).
func (c *Cache) link(fresh []frameID) {
	for _, id := range fresh {
		c.inactive.pushHead(&c.frames, id)
		c.frames.at(id).setFlags(flagState, pageInactive)
	}
	c.nInactive += int64(len(fresh))
}

// promote moves a re-accessed inactive page to the active list.
func (c *Cache) promote(id frameID, p *page) {
	c.inactive.remove(&c.frames, id)
	c.nInactive--
	c.active.pushHead(&c.frames, id)
	p.setFlags(flagState, pageActive)
}

// requeueInactive moves a linked page (on the inactive list, or the active
// list when fromActive) to the inactive head: demotion from active, or
// second-chance rotation.
func (c *Cache) requeueInactive(id frameID, fromActive bool) {
	if fromActive {
		c.active.remove(&c.frames, id)
		c.nInactive++
	} else {
		c.inactive.remove(&c.frames, id)
	}
	c.inactive.pushHead(&c.frames, id)
	c.frames.at(id).setFlags(flagAccessed|flagState, pageInactive)
}

// reclaimIfNeeded enforces the memory budget after an allocation.
// Above capacity: direct reclaim, charged to the allocating thread.
// Above the high watermark: background reclaim on the kswapd worker.
func (c *Cache) reclaimIfNeeded(tl *simtime.Timeline) {
	used := c.used.Load()
	target := used - c.lowWater()
	switch {
	case used > c.cfg.CapacityPages:
		c.directReclaim.Add(1)
		c.reclaim(tl, "cache.reclaim", target, false, c.selectGlobal)
	case used > c.highWater():
		c.kswapdRuns.Add(1)
		at := simtime.Time(0)
		if tl != nil {
			at = tl.Now()
		}
		c.kswapd.Run(at, func(wtl *simtime.Timeline) {
			c.reclaim(wtl, "cache.reclaim", target, true, c.selectGlobal)
		})
	}
}

// A selector chooses whom a reclaim pass evicts: it appends up to target
// victims, each taken off its LRU list and marked pageUnlinked.
// selectGlobal and selectTenant are the two there are.
type selector func(victims []frameID, target int64) []frameID

// reclaim is the one pass by which pages leave the cache by age. Direct,
// background and tenant-targeted reclaim differ in who selects, whose
// timeline pays, the span's name and kswapd's discount, and in nothing else.
func (c *Cache) reclaim(tl *simtime.Timeline, span string, target int64, background bool, sel selector) {
	sc := scratchPool.Get().(*evictScratch)
	defer scratchPool.Put(sc)
	c.mu.Lock()
	defer c.mu.Unlock()
	sc.victims = sel(sc.victims[:0], target)
	if len(sc.victims) == 0 {
		return
	}
	sp := telemetry.Begin(tl, span, telemetry.CatLock)
	sp.Annotate("victims", int64(len(sc.victims)))
	if tl != nil {
		cost := simtime.Duration(len(sc.victims)) * c.cfg.Costs.ReclaimPage
		if background {
			// Background reclaim batches better. Half the pass's total, not
			// half the per-page cost: the two differ when ReclaimPage is odd.
			cost /= 2
		}
		tl.Advance(cost)
	}
	c.evictFromFiles(tl, sc)
	sp.End(tl)
}

// selectGlobal is the selector of direct and background reclaim: the
// oldest pages, from the inactive tail, with a second chance for
// re-accessed ones and the soft-budget bias. Every turn of the loop takes
// a victim, spends bias budget, clears an accessed bit or demotes active
// pages, and nothing sets accessed or fills the active list while the
// cache's lock is held, so the loop ends.
func (c *Cache) selectGlobal(victims []frameID, target int64) []frameID {
	// Soft-budget bias: while any tenant is over its soft budget, pages
	// of tenants within budget rotate back instead of being evicted, so
	// reclaim pressure lands on the offenders first. The bias budget
	// bounds the rotations so reclaim still finishes when only
	// within-budget pages remain.
	biasBudget := 4*target + 256
	for int64(len(victims)) < target {
		id := c.inactive.tail
		if id == 0 {
			// Age: demote a batch of the oldest active pages.
			if c.active.tail == 0 {
				break
			}
			for i := 0; i < 32 && c.active.tail != 0; i++ {
				c.requeueInactive(c.active.tail, true)
			}
			continue
		}
		p := c.frames.at(id)
		biased := biasBudget > 0 && c.nOverSoft > 0 && !c.tenants.at(p.tacct).overSoftNow()
		// Second-chance: a recently re-accessed page rotates once.
		if biased || p.flags&flagAccessed != 0 {
			c.requeueInactive(id, false)
			if biased {
				biasBudget--
			}
			// Avoid infinite rotation on a fully hot list.
			if c.nInactive == 1 {
				break
			}
			continue
		}
		c.inactive.remove(&c.frames, id)
		c.nInactive--
		p.setFlags(flagState, pageUnlinked)
		victims = append(victims, id)
	}
	return victims
}

// evictFromFiles removes sc.victims from their files' indexes and bitmaps,
// writing back dirty pages. Files are visited in inode order, never in
// victim or map order: each visit books virtual time on the file's tree
// ledger (and possibly the device), so any other order would make
// identical runs diverge by microseconds — breaking the replay determinism
// the experiments assert.
func (c *Cache) evictFromFiles(tl *simtime.Timeline, sc *evictScratch) {
	ft := &c.frames
	victims := sc.victims
	slices.SortStableFunc(victims, func(a, b frameID) int {
		return cmp.Compare(c.files.at(ft.at(a).file).inoID, c.files.at(ft.at(b).file).inoID)
	})
	for i := 0; i < len(victims); {
		slot := ft.at(victims[i]).file
		j := i + 1
		for j < len(victims) && ft.at(victims[j]).file == slot {
			j++
		}
		fc, batch := c.files.at(slot), victims[i:j]
		for _, id := range batch {
			idx := int64(ft.at(id).idx)
			fc.clearFrame(idx)
			fc.bm.Clear(idx)
		}
		fc.retireIfDead()
		i = j
		if tl != nil {
			start := tl.Now()
			chargeBatched(int64(len(batch)), func(n int64) {
				fc.treeLedger.Write(tl, simtime.Duration(n)*c.cfg.Costs.TreeDelete)
			})
			telemetry.Current(tl).Child("cache.evict_charge", telemetry.CatLock, start, tl.Now())
		}
		c.finishEviction(tl, fc, batch, false, sc)
	}
}

// finishEviction unlinks fc's victims from the LRU (if still linked),
// accounts them, writes back dirty pages and releases the frames. The
// caller has removed the pages from fc's index, so it owns the frames;
// finishEviction reorders victims.
func (c *Cache) finishEviction(tl *simtime.Timeline, fc *FileCache, victims []frameID, unlink bool, sc *evictScratch) {
	ft := &c.frames
	if unlink {
		for _, id := range victims {
			switch ft.at(id).setFlags(flagState, pageUnlinked) & flagState {
			case pageInactive:
				c.inactive.remove(ft, id)
				c.nInactive--
			case pageActive:
				c.active.remove(ft, id)
			}
		}
	}
	c.used.Add(-int64(len(victims)))
	c.evictions.Add(int64(len(victims)))

	at := simtime.Time(0)
	if tl != nil {
		at = tl.Now()
	}
	// Credit each victim back to its tenant account and feed the scorecard
	// pollution denominator, one booking per run of same-tenant victims to
	// bound scorecard-lock traffic.
	c.rec.Add(telemetry.CtrCacheRemovedPages, int64(len(victims)))
	for i := 0; i < len(victims); {
		slot := ft.at(victims[i]).tacct
		j := i + 1
		for j < len(victims) && ft.at(victims[j]).tacct == slot {
			j++
		}
		a := c.tenants.at(slot)
		c.creditTenant(a, int64(j-i))
		c.score.Evicted(at, fc.inoID, a.id, int64(j-i))
		i = j
	}

	if c.rec != nil || c.score != nil {
		// Pages still carrying prefetch credit were never read: wasted
		// prefetch. The victims may hold non-contiguous indices, so emit one
		// exact OutcomeEvictedBeforeUse event per contiguous index run —
		// never a single span that would cover non-wasted pages.
		wasted := sc.wasted[:0]
		for _, id := range victims {
			p := ft.at(id)
			f := p.setFlags(flagCredit, 0)
			if f&flagCredit == 0 {
				continue
			}
			org, arm := creditOf(f)
			c.rec.OriginWasted(org, 1)
			c.rec.ArmWasted(arm, 1)
			c.score.Wasted(at, fc.inoID, c.tenants.at(p.tacct).id, org, 1)
			wasted = append(wasted, id)
		}
		sc.wasted = wasted[:0]
		c.rec.Add(telemetry.CtrPrefetchWastedPages, int64(len(wasted)))
		eachRun(ft, wasted, func(_ []frameID, lo, hi int64) {
			c.rec.Event(at, telemetry.OutcomeEvictedBeforeUse, fc.inoID, lo, hi)
		})
	}

	if c.flush == nil {
		ft.release(victims)
		return
	}
	// Write back dirty pages as contiguous runs. The frames (not just
	// their indices) are kept so a failed flush can re-insert its run
	// dirty instead of silently discarding unwritten data; the clean ones
	// are released right away.
	dirty := sc.dirty[:0]
	clean := victims[:0]
	for _, id := range victims {
		if ft.at(id).setFlags(flagDirty, 0)&flagDirty != 0 {
			c.dirty.Add(-1)
			dirty = append(dirty, id)
		} else {
			clean = append(clean, id)
		}
	}
	sc.dirty = dirty[:0]
	ft.release(clean)
	eachRun(ft, dirty, func(run []frameID, lo, hi int64) {
		if _, err := c.flush(at, fc.inoID, lo, hi); err != nil {
			c.requeueDirty(at, fc, run)
		} else {
			c.writebacks.Add(hi - lo)
		}
		ft.release(run)
	})
}

// eachRun sorts frames the caller owns by page index and calls emit once
// per maximal run of consecutive indexes [lo, hi).
func eachRun(ft *frameTable, ids []frameID, emit func(run []frameID, lo, hi int64)) {
	slices.SortFunc(ids, func(a, b frameID) int { return cmp.Compare(ft.at(a).idx, ft.at(b).idx) })
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && int64(ft.at(ids[j]).idx) == int64(ft.at(ids[j-1]).idx)+1 {
			j++
		}
		emit(ids[i:j], int64(ft.at(ids[i]).idx), int64(ft.at(ids[j-1]).idx)+1)
		i = j
	}
}

// maxWritebackAttempts bounds how often a dirty page survives failed
// writeback before being dropped (with the loss surfaced in telemetry)
// — an unbounded requeue loop against a persistently failing device
// would pin the cache full of unreclaimable pages.
const maxWritebackAttempts = 3

// requeueDirty puts evicted-but-unwritten pages back into their file,
// dirty, so a failed writeback loses no data, and zeroes their entries in
// run: they are resident again and no longer the caller's to release.
// Pages that have exhausted their attempt budget are dropped and counted
// as lost. The re-inserted pages land at the LRU head and deliberately do
// NOT trigger another reclaim pass (the caller is inside one).
func (c *Cache) requeueDirty(at simtime.Time, fc *FileCache, run []frameID) {
	for k, id := range run {
		p := c.frames.at(id)
		fails := p.flags&flagWbFails>>wbFailsShift + 1
		if fails >= maxWritebackAttempts {
			c.rec.Add(telemetry.CtrWritebackLostPages, 1)
			continue
		}
		idx := int64(p.idx)
		p.setFlags(flagWbFails|flagDirty, fails<<wbFailsShift|flagDirty)
		p.file = fc.frameSlot()
		c.dirty.Add(1)
		fc.setFrame(idx, id)
		fc.bm.Set(idx)
		c.link(run[k : k+1])
		run[k] = 0
		// The re-insertion is a fresh (dirty) insertion for the audit's
		// books: inserted − removed = resident stays exact, and the dirty
		// count keeps these pages out of the clean (read-backed) total. The
		// tenant ledger mirrors that: the page recharges its own account.
		// It is a demand-class insertion for the origin partition (its
		// prefetch credit, if any, was consumed at first eviction), so
		// per-origin inserted keeps summing exactly to
		// CtrCacheInsertedPages, on the recorder and on the scorecard.
		a := c.tenants.at(p.tacct)
		c.used.Add(1)
		c.chargeTenant(a, 1)
		c.rec.Add(telemetry.CtrCacheInsertedPages, 1)
		c.rec.Add(telemetry.CtrCacheDirtyInsertedPages, 1)
		c.rec.OriginInserted(telemetry.OriginDemand, 1)
		c.score.Issued(at, fc.inoID, a.id, telemetry.OriginDemand, 1)
	}
}
