package pagecache

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// TestMissPathZeroAlloc pins the allocation-free steady state of the miss
// path: once the frame table, the index nodes and the eviction scratch have
// grown to the working set, inserting into a full cache (so that every
// insert evicts) and removing a range allocate nothing.
func TestMissPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc guard is meaningless")
	}
	const capacity = 4096
	c := newTestCache(capacity)
	fc := c.File(1)
	tl := simtime.NewTimeline(0)
	next := int64(0)
	// 64-page inserts keep the cache between its watermarks (kswapd
	// reclaims); 1024-page inserts overshoot the budget (direct reclaim).
	for _, pages := range []int64{64, 1024} {
		insert := func() {
			fc.InsertRange(tl, next, next+pages, InsertOptions{MarkerAt: -1, Origin: telemetry.OriginReadahead})
			next = (next + pages) % (8 * capacity) // wraps, so the index and bitmap stop growing
		}
		for i := int64(0); i < 16*capacity/pages; i++ {
			insert()
		}
		before := c.Stats()
		if n := testing.AllocsPerRun(200, insert); n != 0 {
			t.Errorf("%d-page InsertRange into a full cache: %v allocs/run, want 0", pages, n)
		}
		after := c.Stats()
		if after.Evictions-before.Evictions < 200*pages ||
			(pages == 64 && after.KswapdRuns == before.KswapdRuns) ||
			(pages == 1024 && after.DirectReclaim == before.DirectReclaim) {
			t.Fatalf("%d-page inserts did not evict as intended: before %+v after %+v", pages, before, after)
		}
	}

	lo := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		fc.InsertRange(tl, lo, lo+48, InsertOptions{MarkerAt: -1})
		if got := fc.RemoveRange(tl, lo, lo+48); got != 48 {
			t.Fatalf("RemoveRange = %d, want 48", got)
		}
		lo += 64
	}); n != 0 {
		t.Errorf("InsertRange+RemoveRange: %v allocs/run, want 0", n)
	}
}

// TestFrameTableGrowsOnDemand checks that residency, not the configured
// capacity, sizes the frame table, and that eviction recycles frames
// instead of growing it.
func TestFrameTableGrowsOnDemand(t *testing.T) {
	c := newTestCache(1 << 20)
	fc := c.File(1)
	fc.InsertRange(nil, 0, 3*slabSize/2, InsertOptions{MarkerAt: -1})
	if got := len(c.frames.load()); got != 2 {
		t.Fatalf("%d slabs for %d resident pages of a %d-page budget, want 2", got, 3*slabSize/2, 1<<20)
	}
	for i := 0; i < 8; i++ {
		fc.RemoveRange(nil, 0, 3*slabSize/2)
		fc.InsertRange(nil, 0, 3*slabSize/2, InsertOptions{MarkerAt: -1})
	}
	if got := len(c.frames.load()); got != 2 {
		t.Fatalf("%d slabs after remove/insert cycles, want 2: frames are not recycled", got)
	}
}

// TestDroppedFileSlotRecycled checks that file churn does not grow the
// file table, and that a handle which outlives DropFile can still insert
// pages that reclaim finds and evicts.
func TestDroppedFileSlotRecycled(t *testing.T) {
	c := newTestCache(256)
	for ino := int64(1); ino <= 100; ino++ {
		c.File(ino).InsertRange(nil, 0, 8, InsertOptions{MarkerAt: -1})
		c.DropFile(nil, ino)
	}
	if n := len(*c.files.tab.Load()); n > 2 {
		t.Fatalf("file table holds %d slots after 100 create/drop cycles, want 1 (+ the nil slot)", n)
	}
	stale := c.File(7)
	c.DropFile(nil, 7)
	stale.InsertRange(nil, 0, 64, InsertOptions{MarkerAt: -1})
	c.File(8).InsertRange(nil, 0, 512, InsertOptions{MarkerAt: -1})
	if stale.CachedPages() != 0 {
		t.Fatalf("reclaim left %d pages of the dropped file resident", stale.CachedPages())
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("used %d > capacity %d", c.Used(), c.Capacity())
	}
}

// TestSharedInodeFrameRecycleStress hammers one shared inode (plus a
// second file, so victim batches span files) from eight goroutines that
// insert, look up, remove and dirty overlapping ranges of a working set
// many times the cache, so every frame is recycled over and over while
// other goroutines hold references to it across lock drops. Run under
// -race at several GOMAXPROCS; afterwards every ledger must reconcile
// exactly.
func TestSharedInodeFrameRecycleStress(t *testing.T) {
	for _, procs := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			stressSharedInode(t)
		})
	}
}

func stressSharedInode(t *testing.T) {
	const (
		capacity = 512
		span     = 8 * capacity
		workers  = 8
	)
	opsEach := 3000
	if raceEnabled {
		opsEach = 1000 // the detector makes reclaim's lock traffic ~20x slower
	}
	flush := func(at simtime.Time, ino, lo, hi int64) (simtime.Time, error) { return at, nil }
	c := New(Config{BlockSize: 4096, CapacityPages: capacity, Costs: simtime.DefaultCosts()}, flush)
	rec := telemetry.NewRecorder(1024)
	c.SetTelemetry(rec)
	c.SetScorecard(telemetry.NewScorecard())
	c.SetTenantBudget(1, capacity/4, 0)
	c.SetTenantBudget(2, capacity/8, capacity/3)
	shared, other := c.File(1), c.File(2)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			tl := simtime.NewTimeline(0)
			var res LookupResult
			for op := 0; op < opsEach; op++ {
				fc := shared
				if rng.Intn(8) == 0 {
					fc = other
				}
				lo := rng.Int63n(span)
				hi := lo + 1 + rng.Int63n(80)
				switch k := rng.Intn(10); {
				case k < 5:
					opt := InsertOptions{MarkerAt: lo, Tenant: rng.Intn(3), Dirty: rng.Intn(16) == 0}
					if rng.Intn(2) == 0 {
						opt.Origin = telemetry.OriginCrossOS
					}
					n := fc.InsertRange(tl, lo, hi, opt)
					// What the VFS books beside an insert; the audit ties
					// these to the cache's own counts.
					if opt.Origin.IsPrefetch() {
						rec.Add(telemetry.CtrVFSPrefetchInsertedPages, n)
						rec.Add(telemetry.CtrVFSPrefetchDevicePages, n)
					} else {
						rec.Add(telemetry.CtrVFSDemandFetchPages, n)
					}
				case k < 8:
					fc.LookupRangeInto(tl, lo, hi, &res)
					if res.PresentCount > hi-lo {
						t.Errorf("lookup [%d,%d) found %d pages", lo, hi, res.PresentCount)
					}
				case k < 9:
					fc.RemoveRange(tl, lo, hi)
				default:
					fc.SetDirtyRange(tl, lo, hi)
					fc.CollectDirtyRuns(tl, lo, hi)
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Evictions < 20*capacity {
		t.Fatalf("only %d evictions: frames were not recycled enough to mean anything", st.Evictions)
	}
	if slabs := len(c.frames.load()); slabs > 2*(capacity/slabSize+1)+workers {
		t.Errorf("%d slabs for a %d-page cache: evicted frames are leaking", slabs, capacity)
	}
	// Index, bitmap and global residency agree, file by file.
	var resident int64
	for _, fc := range []*FileCache{shared, other} {
		var indexed int64
		fc.WalkResident(nil, 0, span+128, func(idx int64) {
			indexed++
			if !fc.bm.Test(idx) {
				t.Errorf("ino %d page %d indexed but clear in the bitmap", fc.InoID(), idx)
			}
		})
		if indexed != fc.CachedPages() {
			t.Errorf("ino %d: %d pages indexed, bitmap counts %d", fc.InoID(), indexed, fc.CachedPages())
		}
		resident += indexed
	}
	if resident != c.Used() {
		t.Errorf("files hold %d pages, cache says %d", resident, c.Used())
	}
	// Every resident frame is on exactly one LRU list, and nothing else is.
	var linked int64
	for i := range c.lru {
		for _, l := range []*pageList{&c.lru[i].inactive, &c.lru[i].active} {
			linked += listLen(&c.frames, l)
		}
	}
	if linked != c.Used() {
		t.Errorf("%d frames linked on LRU lists, %d resident", linked, c.Used())
	}
	if c.nInactive.Load() < 0 {
		t.Errorf("nInactive = %d", c.nInactive.Load())
	}
	auditLedgers(t, c, rec)
}

// auditLedgers runs the telemetry audit over c's books: the tenant
// partition and the telemetry identities, exactly.
func auditLedgers(t *testing.T, c *Cache, rec *telemetry.Recorder) {
	t.Helper()
	var ledgers []telemetry.TenantLedger
	for _, ts := range c.TenantStats() {
		ledgers = append(ledgers, telemetry.TenantLedger{ID: ts.ID, Resident: ts.Resident, Inserted: ts.Inserted, Evicted: ts.Evicted})
	}
	if err := telemetry.Audit(rec.Snapshot(), telemetry.AuditInput{
		BlockSize: 4096, CacheUsed: c.Used(), Tenants: ledgers, HasTenants: true,
	}); err != nil {
		t.Error(err)
	}
}

// listLen walks l head to tail, checking the back links as it goes.
func listLen(ft *frameTable, l *pageList) int64 {
	var n int64
	var prev frameID
	for id := l.head; id != 0; id = ft.at(id).next {
		if ft.at(id).prev != prev {
			return -1 << 40
		}
		prev = id
		n++
	}
	if l.tail != prev {
		return -1 << 40
	}
	return n
}
