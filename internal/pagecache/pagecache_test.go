package pagecache

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/simtime"
)

func newTestCache(capacity int64) *Cache {
	return New(Config{BlockSize: 4096, CapacityPages: capacity, Costs: simtime.DefaultCosts()}, nil)
}

func TestInsertAndLookup(t *testing.T) {
	c := newTestCache(1000)
	fc := c.File(1)
	tl := simtime.NewTimeline(0)

	n := fc.InsertRange(tl, 0, 10, InsertOptions{MarkerAt: -1})
	if n != 10 {
		t.Fatalf("inserted %d, want 10", n)
	}
	res := fc.LookupRange(tl, 0, 20)
	if res.PresentCount != 10 {
		t.Fatalf("present = %d, want 10", res.PresentCount)
	}
	for i := 0; i < 10; i++ {
		if !res.Present[i] {
			t.Fatalf("page %d should be present", i)
		}
	}
	for i := 10; i < 20; i++ {
		if res.Present[i] {
			t.Fatalf("page %d should be absent", i)
		}
	}
	if c.Used() != 10 {
		t.Fatalf("used = %d", c.Used())
	}
	if fc.CachedPages() != 10 {
		t.Fatalf("cached = %d", fc.CachedPages())
	}
	st := c.Stats()
	if st.Hits != 10 || st.Misses != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDoubleInsertIdempotent(t *testing.T) {
	c := newTestCache(1000)
	fc := c.File(1)
	fc.InsertRange(nil, 0, 10, InsertOptions{MarkerAt: -1})
	n := fc.InsertRange(nil, 5, 15, InsertOptions{MarkerAt: -1})
	if n != 5 {
		t.Fatalf("second insert added %d, want 5", n)
	}
	if c.Used() != 15 {
		t.Fatalf("used = %d, want 15", c.Used())
	}
}

func TestMarkerHitClearsMarker(t *testing.T) {
	c := newTestCache(1000)
	fc := c.File(1)
	fc.InsertRange(nil, 0, 8, InsertOptions{MarkerAt: 6})
	res := fc.LookupRange(nil, 5, 8)
	if !res.MarkerHit {
		t.Fatal("lookup crossing the marker should report it")
	}
	res = fc.LookupRange(nil, 5, 8)
	if res.MarkerHit {
		t.Fatal("marker should have been cleared")
	}
}

func TestReadyAtPropagates(t *testing.T) {
	c := newTestCache(1000)
	fc := c.File(1)
	fc.InsertRange(nil, 0, 4, InsertOptions{ReadyAt: 5000, MarkerAt: -1})
	res := fc.LookupRange(nil, 0, 4)
	if res.ReadyAt != 5000 {
		t.Fatalf("ReadyAt = %v, want 5000", res.ReadyAt)
	}
	// Over a range only partly resident: the latest among the resident.
	if got := fc.LookupRange(nil, 2, 8).ReadyAt; got != 5000 {
		t.Fatalf("ReadyAt over [2, 8) = %v, want 5000", got)
	}
}

func TestRemoveRange(t *testing.T) {
	c := newTestCache(1000)
	fc := c.File(1)
	fc.InsertRange(nil, 0, 20, InsertOptions{MarkerAt: -1})
	removed := fc.RemoveRange(nil, 5, 10)
	if removed != 5 {
		t.Fatalf("removed %d, want 5", removed)
	}
	if c.Used() != 15 {
		t.Fatalf("used = %d, want 15", c.Used())
	}
	res := fc.LookupRange(nil, 0, 20)
	if res.PresentCount != 15 {
		t.Fatalf("present = %d, want 15", res.PresentCount)
	}
	if c.Stats().Evictions != 5 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestLRUEvictsColdestFirst(t *testing.T) {
	c := newTestCache(100)
	fc := c.File(1)
	fc.InsertRange(nil, 0, 50, InsertOptions{MarkerAt: -1})
	// Heat up pages 0-9 with two accesses (promotes to active).
	fc.LookupRange(nil, 0, 10)
	fc.LookupRange(nil, 0, 10)
	// Push past capacity with another file.
	fc2 := c.File(2)
	fc2.InsertRange(nil, 0, 80, InsertOptions{MarkerAt: -1})
	// The hot pages should have survived.
	res := fc.LookupRange(nil, 0, 10)
	if res.PresentCount < 8 {
		t.Fatalf("hot pages evicted: %d/10 survive", res.PresentCount)
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	var flushed []int64
	var mu sync.Mutex
	c := New(Config{BlockSize: 4096, CapacityPages: 50, Costs: simtime.DefaultCosts()},
		func(at simtime.Time, ino, lo, hi int64) (simtime.Time, error) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				flushed = append(flushed, i)
			}
			mu.Unlock()
			return at, nil
		})
	fc := c.File(1)
	fc.InsertRange(nil, 0, 40, InsertOptions{Dirty: true, MarkerAt: -1})
	fc.InsertRange(nil, 40, 80, InsertOptions{MarkerAt: -1})
	mu.Lock()
	defer mu.Unlock()
	if len(flushed) == 0 {
		t.Fatal("dirty pages evicted without writeback")
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("writeback counter not updated")
	}
}

func TestFastMissingRuns(t *testing.T) {
	c := newTestCache(1000)
	fc := c.File(1)
	fc.InsertRange(nil, 4, 8, InsertOptions{MarkerAt: -1})
	tl := simtime.NewTimeline(0)
	runs := fc.FastMissingRuns(tl, 0, 12)
	if len(runs) != 2 || runs[0].Lo != 0 || runs[0].Hi != 4 || runs[1].Lo != 8 || runs[1].Hi != 12 {
		t.Fatalf("runs = %v", runs)
	}
	// Fast path charges the bitmap ledger, not the tree ledger.
	if fc.bmLedger.Stats().Reads == 0 {
		t.Fatal("bitmap ledger not charged")
	}
	if fc.treeLedger.Stats().Reads != 0 {
		t.Fatal("fast path should not touch the tree ledger")
	}
}

func TestExportBitmap(t *testing.T) {
	c := newTestCache(1000)
	fc := c.File(1)
	fc.InsertRange(nil, 10, 20, InsertOptions{MarkerAt: -1})
	var dst bitmap.Window
	fc.ExportBitmap(nil, 0, 64, &dst)
	if dst.Count() != 10 {
		t.Fatalf("exported %d set bits, want 10", dst.Count())
	}
	if !dst.Test(10) || dst.Test(9) || dst.Test(20) {
		t.Fatal("wrong bits exported")
	}
}

func TestWalkResident(t *testing.T) {
	c := newTestCache(1000)
	fc := c.File(1)
	fc.InsertRange(nil, 3, 6, InsertOptions{MarkerAt: -1})
	var got []int64
	tl := simtime.NewTimeline(0)
	fc.WalkResident(tl, 0, 10, func(i int64) { got = append(got, i) })
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("walk = %v", got)
	}
	// fincore-style walks hold the tree lock exclusive.
	if fc.treeLedger.Stats().Writes == 0 {
		t.Fatal("WalkResident should charge tree write lock")
	}
}

func TestDropFile(t *testing.T) {
	c := newTestCache(1000)
	fc := c.File(1)
	fc.InsertRange(nil, 0, 30, InsertOptions{MarkerAt: -1})
	c.DropFile(nil, 1)
	if c.Used() != 0 {
		t.Fatalf("used = %d after drop", c.Used())
	}
	// A fresh FileCache is created on next access.
	fc2 := c.File(1)
	if fc2 == fc {
		t.Fatal("dropped file state should not be reused")
	}
	if fc2.CachedPages() != 0 {
		t.Fatal("new file state should be empty")
	}
}

func TestTreeLockContention(t *testing.T) {
	c := newTestCache(100000)
	fc := c.File(1)
	a := simtime.NewTimeline(0)
	b := simtime.NewTimeline(0)
	// A large insert (write lock, batched) delays a concurrent lookup
	// that lands inside one of its batches.
	fc.InsertRange(a, 0, 2000, InsertOptions{MarkerAt: -1})
	fc.LookupRange(b, 0, 1)
	if b.Account(simtime.WaitLock) == 0 {
		t.Fatal("lookup should have waited for the insert's tree lock")
	}
}

func TestConcurrentInsertLookup(t *testing.T) {
	c := newTestCache(100000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fc := c.File(int64(w % 4))
			tl := simtime.NewTimeline(0)
			for i := int64(0); i < 200; i++ {
				fc.InsertRange(tl, i*4, i*4+4, InsertOptions{MarkerAt: -1})
				fc.LookupRange(tl, i*4, i*4+4)
				if i%10 == 0 {
					fc.RemoveRange(tl, i*4, i*4+2)
				}
			}
		}(w)
	}
	wg.Wait()
	// Invariant: used equals the sum of per-file cached pages.
	var sum int64
	for i := int64(0); i < 4; i++ {
		sum += c.File(i).CachedPages()
	}
	if sum != c.Used() {
		t.Fatalf("used=%d but files sum=%d", c.Used(), sum)
	}
}

func TestMissPercent(t *testing.T) {
	s := Stats{Hits: 25, Misses: 75}
	if got := s.MissPercent(); got != 75 {
		t.Fatalf("MissPercent = %v", got)
	}
	if got := (Stats{}).MissPercent(); got != 0 {
		t.Fatalf("empty MissPercent = %v", got)
	}
}

// NonResidentSpan scans the residency bitmap a word at a time and must
// answer as the page-at-a-time trim did, for every window over files whose
// resident runs start, end and break anywhere in a word.
func TestNonResidentSpanMatchesPerPage(t *testing.T) {
	perPage := func(fc *FileCache, lo, hi int64) (int64, int64) {
		if lo < 0 {
			lo = 0
		}
		for lo < hi && fc.bm.Test(lo) {
			lo++
		}
		for hi > lo && fc.bm.Test(hi-1) {
			hi--
		}
		return lo, hi
	}
	const pages = 300
	rng := rand.New(rand.NewSource(5))
	tl := simtime.NewTimeline(0)
	for file := int64(1); file <= 12; file++ {
		c := newTestCache(4 * pages)
		fc := c.File(file)
		switch file {
		case 1: // nothing resident
		case 2:
			fc.InsertRange(tl, 0, pages, InsertOptions{MarkerAt: -1})
		default:
			for i := 0; i < int(file); i++ {
				lo := rng.Int63n(pages)
				fc.InsertRange(tl, lo, min(lo+1+rng.Int63n(150), pages), InsertOptions{MarkerAt: -1})
			}
		}
		for lo := int64(-2); lo < pages+70; lo++ {
			for hi := lo - 2; hi < pages+70; hi++ {
				gl, gh := fc.NonResidentSpan(lo, hi)
				if wl, wh := perPage(fc, lo, hi); gl != wl || gh != wh {
					t.Fatalf("file %d: NonResidentSpan(%d, %d) = [%d, %d), page at a time [%d, %d)", file, lo, hi, gl, gh, wl, wh)
				}
			}
		}
	}
}
