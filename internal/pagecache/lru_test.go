package pagecache

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/simtime"
)

// TestEvictionOrderMatchesInsertion pins global reclaim to the LRU order:
// with pages of three files interleaved, reclaim must evict in exact
// insertion order across the files.
func TestEvictionOrderMatchesInsertion(t *testing.T) {
	const (
		capacity = 128
		total    = 3 * capacity
	)
	c := New(Config{BlockSize: 4096, CapacityPages: capacity}, nil)
	tl := simtime.NewTimeline(0)
	fcs := []*FileCache{c.File(10), c.File(20), c.File(30)}

	type ins struct {
		fc  *FileCache
		idx int64
	}
	order := make([]ins, 0, total)
	for i := 0; i < total; i++ {
		fc := fcs[i%len(fcs)]
		idx := int64(i / len(fcs))
		fc.InsertRange(tl, idx, idx+1, InsertOptions{MarkerAt: -1})
		order = append(order, ins{fc, idx})
	}

	// Residency must be a suffix of the insertion order: once one page is
	// resident, every later-inserted page is too.
	resident := 0
	seenResident := false
	for k, in := range order {
		ok := in.fc.bm.Test(in.idx)
		if ok {
			resident++
			seenResident = true
		} else if seenResident {
			t.Fatalf("insertion #%d evicted after an older insertion survived: eviction left insertion order", k)
		}
	}
	if int64(resident) != c.Used() {
		t.Fatalf("resident suffix %d pages != cache used %d", resident, c.Used())
	}
	if resident == 0 || resident == total {
		t.Fatalf("reclaim did not run meaningfully: %d/%d resident", resident, total)
	}
}

// TestTenantReclaimTakesOldestFirst pins hard-budget reclaim to the
// tenant's own oldest pages: a tenant over its budget inserts one page at a
// time, interleaved across three files and many 64-page index nodes, while
// an unbudgeted tenant's pages sit among them. Its resident pages must be
// the latest it inserted, and nobody else's page may go.
func TestTenantReclaimTakesOldestFirst(t *testing.T) {
	const (
		hard  = 64
		total = 4 * hard
	)
	c := New(Config{BlockSize: 4096, CapacityPages: 1 << 12}, nil)
	c.SetTenantBudget(1, 0, hard)
	tl := simtime.NewTimeline(0)
	fcs := []*FileCache{c.File(10), c.File(20), c.File(30)}

	type ins struct {
		fc  *FileCache
		idx int64
	}
	order := make([]ins, 0, total)
	for i := 0; i < total; i++ {
		fc := fcs[i%len(fcs)]
		idx := int64(i/len(fcs)) * 13 // a new 64-page node every five of a file's pages
		fc.InsertRange(tl, idx, idx+1, InsertOptions{MarkerAt: -1, Tenant: 1})
		order = append(order, ins{fc, idx})
		// The other tenant's page lands in the gap before the next one.
		fc.InsertRange(tl, idx+1, idx+2, InsertOptions{MarkerAt: -1})
	}

	for k, in := range order {
		if got, want := in.fc.bm.Test(in.idx), k >= total-hard; got != want {
			t.Fatalf("insertion #%d of %d resident = %v, want %v: tenant reclaim left the tenant's insertion order", k, total, got, want)
		}
		if !in.fc.bm.Test(in.idx + 1) {
			t.Fatalf("the unbudgeted tenant lost page %d of ino %d", in.idx+1, in.fc.InoID())
		}
	}
	st := c.Stats()
	if st.Used != hard+total || st.TenantReclaims != total-hard {
		t.Fatalf("used %d, %d tenant reclaims: want %d and %d", st.Used, st.TenantReclaims, hard+total, total-hard)
	}
}

// TestLookupFastPathZeroAlloc pins the allocation-free steady state of the
// hot lookup paths: a reused LookupResult, the bitmap fast path with
// caller scratch, and the state queries.
func TestLookupFastPathZeroAlloc(t *testing.T) {
	c := New(Config{BlockSize: 4096, CapacityPages: 1 << 16}, nil)
	fc := c.File(1)
	fc.InsertRange(nil, 0, 256, InsertOptions{MarkerAt: -1})

	var res LookupResult
	if n := testing.AllocsPerRun(100, func() {
		fc.LookupRangeInto(nil, 32, 96, &res)
		if res.PresentCount != 64 {
			t.Fatalf("PresentCount = %d, want 64", res.PresentCount)
		}
	}); n != 0 {
		t.Errorf("LookupRangeInto with reused result: %v allocs/run, want 0", n)
	}

	runs := make([]bitmap.Run, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		runs = fc.AppendFastMissingRuns(nil, runs[:0], 0, 512)
		if len(runs) != 1 {
			t.Fatalf("missing runs = %v", runs)
		}
	}); n != 0 {
		t.Errorf("AppendFastMissingRuns with scratch: %v allocs/run, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		_ = fc.Span()
		_ = fc.CachedPages()
	}); n != 0 {
		t.Errorf("Span/CachedPages: %v allocs/run, want 0", n)
	}
}
