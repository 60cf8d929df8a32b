package pagecache

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

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
	if got := len(c.frames.slabs); got != 2 {
		t.Fatalf("%d slabs for %d resident pages of a %d-page budget, want 2", got, 3*slabSize/2, 1<<20)
	}
	for i := 0; i < 8; i++ {
		fc.RemoveRange(nil, 0, 3*slabSize/2)
		fc.InsertRange(nil, 0, 3*slabSize/2, InsertOptions{MarkerAt: -1})
	}
	if got := len(c.frames.slabs); got != 2 {
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
	if n := len(c.files.tab); n > 2 {
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
// many times the cache, so every frame is recycled over and over. Run
// under -race at several GOMAXPROCS; afterwards every ledger must
// reconcile exactly.
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
	if slabs := len(c.frames.slabs); slabs > 2*(capacity/slabSize+1)+workers {
		t.Errorf("%d slabs for a %d-page cache: evicted frames are leaking", slabs, capacity)
	}
	checkFrames(t, c, rec, span+128, shared, other)
}

// checkFrames reconciles everything a cache whose pages all belong to files
// keeps twice: index, bitmap and residency file by file; every resident
// frame on exactly one LRU list, the list its state bits name; the
// prefetch credit, which each origin and each arm books exactly once (used
// or wasted) or still holds (issued = used + wasted + outstanding); and the
// tenant partition and telemetry audit. Call it once the goroutines are
// done.
func checkFrames(t *testing.T, c *Cache, rec *telemetry.Recorder, span int64, files ...*FileCache) {
	t.Helper()
	var resident int64
	var outOrigin [telemetry.NumOrigins]int64
	var outArm [telemetry.NumArms]int64
	ft := &c.frames
	for _, fc := range files {
		var indexed int64
		fc.WalkResident(nil, 0, span, func(idx int64) {
			indexed++
			if !fc.bm.Test(idx) {
				t.Errorf("ino %d page %d indexed but clear in the bitmap", fc.InoID(), idx)
			}
			if f := ft.at(fc.frameAt(idx)).flags; f&flagCredit != 0 {
				org, arm := creditOf(f)
				outOrigin[org]++
				outArm[arm]++
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
	var linked, inactive int64
	for _, l := range []*pageList{&c.inactive, &c.active} {
		want := pageActive
		if l == &c.inactive {
			want = pageInactive
		}
		n := listLen(ft, l)
		for id := l.head; n > 0 && id != 0; id = ft.at(id).next {
			if got := ft.at(id).flags & flagState; got != want {
				t.Errorf("frame %d on a list of state %#x says %#x", id, want, got)
			}
		}
		if want == pageInactive {
			inactive += n
		}
		linked += n
	}
	if linked != c.Used() {
		t.Errorf("%d frames linked on LRU lists, %d resident", linked, c.Used())
	}
	if c.nInactive != inactive {
		t.Errorf("nInactive = %d, %d frames on the inactive list", c.nInactive, inactive)
	}
	s := rec.Snapshot()
	for o := telemetry.Origin(0); o < telemetry.NumOrigins; o++ {
		st := s.Origin(o)
		issued := st.Inserted
		if !o.IsPrefetch() {
			issued = 0 // demand pages carry no credit
		}
		if issued != st.Used+st.Wasted+outOrigin[o] {
			t.Errorf("origin %s: issued %d != used %d + wasted %d + outstanding %d", o, issued, st.Used, st.Wasted, outOrigin[o])
		}
	}
	for a := telemetry.Arm(0); a < telemetry.NumArms; a++ {
		if st := s.Arm(a); st.Inserted != st.Used+st.Wasted+outArm[a] {
			t.Errorf("arm %s: issued %d != used %d + wasted %d + outstanding %d", a, st.Inserted, st.Used, st.Wasted, outArm[a])
		}
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

// TestPageFrameSize pins the frame at 40 bytes, so that a slab of 1 024
// frames is 40 KiB: two 8-byte words (readyAt, issuedAt) and six 4-byte
// ones (idx, prev, next, file, tacct and the flag word).
func TestPageFrameSize(t *testing.T) {
	if got := unsafe.Sizeof(page{}); got != 40 {
		t.Fatalf("page frame is %d bytes, want 40", got)
	}
}

// TestFlagWordContention races the flag word's writers on the same frames:
// readers consume credit and markers, set accessed and promote, while
// inserts drive reclaim, which demotes, rotates and evicts those frames
// and finishes evictions that a failing writeback puts back. A write that
// overwrote a concurrent one would book a credit twice or never, or leave
// a frame on a list its state does not name; checkFrames catches both.
// Run it under -race with -count.
func TestFlagWordContention(t *testing.T) {
	for _, procs := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			contendFlagWords(t)
		})
	}
}

func contendFlagWords(t *testing.T) {
	// A cache small enough that every reclaim pass meets the readers.
	const (
		capacity = 128
		span     = 3 * capacity / 2
		readers  = 6
		writers  = 2
	)
	opsEach := 10000
	if raceEnabled {
		opsEach = 3000
	}
	// One writeback in three fails, so evicted dirty pages go back to
	// their files.
	var flushes atomic.Int64
	flush := func(at simtime.Time, ino, lo, hi int64) (simtime.Time, error) {
		if flushes.Add(1)%3 == 0 {
			return at, errors.New("injected writeback failure")
		}
		return at, nil
	}
	c := New(Config{BlockSize: 4096, CapacityPages: capacity, Costs: simtime.DefaultCosts()}, flush)
	rec := telemetry.NewRecorder(1024)
	c.SetTelemetry(rec)
	c.SetTenantBudget(1, 0, capacity/4) // tenant reclaim takes active pages too
	fc := c.File(1)

	var wg sync.WaitGroup
	for w := 0; w < readers+writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			tl := simtime.NewTimeline(0)
			var res LookupResult
			for op := 0; op < opsEach; op++ {
				lo := rng.Int63n(span)
				hi := lo + 1 + rng.Int63n(32)
				if w < readers {
					// Half the reads stay in the first eighth, so pages are
					// read again and promoted, and reclaim must demote them.
					if rng.Intn(2) == 0 {
						lo %= span / 8
						hi = lo + 1 + rng.Int63n(16)
					}
					fc.LookupRangeInto(tl, lo, hi, &res)
					continue
				}
				opt := InsertOptions{
					MarkerAt: lo + rng.Int63n(hi-lo),
					Origin:   telemetry.Origin(1 + rng.Intn(int(telemetry.NumOrigins)-1)),
					Arm:      telemetry.Arm(rng.Intn(int(telemetry.NumArms))),
					Tenant:   rng.Intn(2),
					Dirty:    rng.Intn(8) == 0,
				}
				n := fc.InsertRange(tl, lo, hi, opt)
				rec.Add(telemetry.CtrVFSPrefetchInsertedPages, n)
				rec.Add(telemetry.CtrVFSPrefetchDevicePages, n)
			}
		}(w)
	}
	wg.Wait()

	s := rec.Snapshot()
	if st := c.Stats(); st.Evictions < 20*capacity || st.TenantReclaims == 0 {
		t.Fatalf("%d evictions, %d tenant reclaims: the readers met too little reclaim", st.Evictions, st.TenantReclaims)
	}
	if s.Counter(telemetry.CtrPrefetchHitPages) == 0 || s.Counter(telemetry.CtrPrefetchWastedPages) == 0 {
		t.Fatalf("no credit both used and wasted: hits %d wasted %d",
			s.Counter(telemetry.CtrPrefetchHitPages), s.Counter(telemetry.CtrPrefetchWastedPages))
	}
	checkFrames(t, c, rec, span+64, fc)
}
