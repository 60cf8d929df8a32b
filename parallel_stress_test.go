// Real-concurrency stress tests for the sharded cache: many goroutines
// demand-reading and prefetching disjoint and overlapping ranges of one
// shared inode, with eviction churn racing the readers. Run under -race by
// `make check`. After the storm settles, every layer's account of the work
// must still reconcile exactly — the same invariants the single-threaded
// telemetry audit enforces.
package crossprefetch_test

import (
	"sync"
	"sync/atomic"
	"testing"

	crossprefetch "repro"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// TestParallelSharedInodeStress: 8 goroutines hammer one inode — four read
// disjoint stripes, two scan the whole file (overlapping everyone), two
// evict a private window and demand-read it back. Reads go through the
// CROSS-LIB shim, so library prefetch (readahead_info) races the demand
// lookups and the evictions. Afterwards the bitmap popcount, the page
// index, the hit/miss counters, and the cross-layer telemetry audit must
// all agree exactly.
func TestParallelSharedInodeStress(t *testing.T) {
	const (
		block     = 4096
		filePages = 512
		workers   = 8
		iters     = 80
	)
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: filePages * block * 4,
		BlockSize:   block,
		Telemetry:   true,
		Approach:    crossprefetch.CrossPredictOpt,
	})
	tl0 := sys.Timeline()
	if err := sys.CreateSynthetic(tl0, "shared", filePages*block); err != nil {
		t.Fatal(err)
	}

	var demanded atomic.Int64 // pages demanded via ReadAt, all goroutines
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tl := simtime.NewTimeline(0)
			f, err := sys.Open(tl, "shared")
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close(tl)
			switch {
			case id < 4:
				// Disjoint stripe: sequential 64KB reads inside a private
				// quarter of the file.
				const stripe = filePages / 4
				base := int64(id) * stripe
				buf := make([]byte, 16*block)
				for i := 0; i < iters; i++ {
					off := (base + int64(i*16)%stripe) * block
					if _, err := f.ReadAt(tl, buf, off); err != nil {
						t.Error(err)
						return
					}
					demanded.Add(16)
				}
			case id < 6:
				// Overlapping scan: 128KB reads over the whole file,
				// colliding with every stripe and the churn windows.
				buf := make([]byte, 32*block)
				for i := 0; i < iters; i++ {
					off := (int64(i*32) % filePages) * block
					if _, err := f.ReadAt(tl, buf, off); err != nil {
						t.Error(err)
						return
					}
					demanded.Add(32)
				}
			default:
				// Churner: evict a private 64-page window through the
				// kernel, then demand-read part of it back — misses race
				// the other readers' hits and the library's prefetches.
				win := int64(filePages/2) + int64(id-6)*64
				buf := make([]byte, 8*block)
				for i := 0; i < iters; i++ {
					f.Kernel().Fadvise(tl, vfs.AdvDontNeed, win*block, 64*block)
					off := (win + int64(i*8)%64) * block
					if _, err := f.ReadAt(tl, buf, off); err != nil {
						t.Error(err)
						return
					}
					demanded.Add(8)
				}
			}
		}(w)
	}
	wg.Wait()

	// Cross-layer reconciliation at quiescence.
	if err := sys.AuditTelemetry(); err != nil {
		t.Errorf("telemetry audit after stress: %v", err)
	}

	kf, err := sys.Kernel().Open(tl0, "shared")
	if err != nil {
		t.Fatal(err)
	}
	defer kf.Close(tl0)
	fc := kf.FileCache()

	// Bitmap popcount == page-index population, bit for bit.
	resident := int64(0)
	fc.WalkResident(nil, 0, fc.Span(), func(int64) { resident++ })
	if got := fc.CachedPages(); got != resident {
		t.Errorf("bitmap popcount %d != page-index population %d", got, resident)
	}
	if used := sys.Cache().Used(); used != resident {
		t.Errorf("cache used %d != shared file resident %d", used, resident)
	}

	// Per-file and global hit/miss counters agree (single data file), and
	// every demanded page was counted exactly once as a hit or a miss.
	st := sys.Cache().Stats()
	if st.Hits != fc.Hits() || st.Misses != fc.Misses() {
		t.Errorf("global hits/misses %d/%d != file hits/misses %d/%d",
			st.Hits, st.Misses, fc.Hits(), fc.Misses())
	}
	if got, want := fc.Hits()+fc.Misses(), demanded.Load(); got != want {
		t.Errorf("hits+misses = %d, want %d demanded pages", got, want)
	}

	// Every miss was demand-fetched from the device, and nothing else was.
	snap := sys.Telemetry().Snapshot()
	if got, want := snap.Counter(telemetry.CtrVFSDemandFetchPages), fc.Misses(); got != want {
		t.Errorf("demand-fetched pages %d != misses %d", got, want)
	}
}

// TestWarmReadAtZeroAlloc pins the allocation-free steady state of the
// demand-read hot path: with telemetry disabled and the file warm, a
// kernel ReadAt must not allocate — the lookup reuses pooled scratch and
// the readahead decision runs on the bitmap fast path.
func TestWarmReadAtZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc guard is meaningless")
	}
	const (
		block     = 4096
		filePages = 512
	)
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: filePages * block * 4,
		BlockSize:   block,
	})
	tl := sys.Timeline()
	if err := sys.CreateSynthetic(tl, "warm", filePages*block); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Kernel().Open(tl, "warm")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(tl)
	buf := make([]byte, 16*block)
	for off := int64(0); off < filePages*block; off += int64(len(buf)) {
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			t.Fatal(err)
		}
	}

	var off int64
	if n := testing.AllocsPerRun(200, func() {
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			t.Fatal(err)
		}
		off = (off + int64(len(buf))) % (filePages * block)
	}); n != 0 {
		t.Errorf("warm ReadAt: %v allocs/run, want 0", n)
	}
}

// TestWarmRingBatchAllocBound pins the ring's library-side scratch reuse:
// one warm read prepped, submitted and reaped. Before Submit pooled its
// per-call slices and swapped rather than dropped the staged buffer, this
// batch cost 8 allocations, five of them the library's (the regrown staged
// buffer, the kernel SQE batch, its metadata, the completion slice, the
// regrown CQ). One of those is left — the CQ slice, which Reap hands its
// caller to keep — beside vfs.RingEnter's own three (CQEs, pending table,
// wait group), which are not this guard's to remove.
func TestWarmRingBatchAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc guard is meaningless")
	}
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: 64 << 20,
		Approach:    crossprefetch.CrossPredictOpt,
	})
	tl := sys.Timeline()
	if err := sys.CreateSynthetic(tl, "data", 1<<20); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open(tl, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(tl)
	ring := sys.Lib().NewRing(0, 8)
	defer ring.Close()
	buf := make([]byte, 16<<10)
	batch := func() {
		if err := ring.PrepRead(f, buf, 0, 1); err != nil {
			t.Fatal(err)
		}
		ring.Submit(tl)
		if cq := ring.Reap(tl, 1); len(cq) != 1 || cq[0].Err != nil {
			t.Fatalf("completions: %+v", cq)
		}
	}
	batch() // warm the cache and the pools
	if n := testing.AllocsPerRun(200, batch); n > 4 {
		t.Errorf("warm one-read ring batch: %v allocs/run, want at most 4", n)
	}
}
