// Real-concurrency stress tests for the page cache: many goroutines
// demand-reading and prefetching disjoint and overlapping ranges of one
// shared inode, with eviction churn racing the readers. Run under -race by
// `make check`. After the storm settles, every layer's account of the work
// must still reconcile exactly — the same invariants the single-threaded
// telemetry audit enforces.
package crossprefetch_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/pagecache"
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

	fc, resident := checkResidency(t, sys, "shared")
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

// checkResidency: at quiescence the cross-layer audit holds, and the file's
// residency bitmap agrees bit for bit with its page index. It returns the
// file's cache and its resident page count.
func checkResidency(t *testing.T, sys *crossprefetch.System, name string) (*pagecache.FileCache, int64) {
	t.Helper()
	if err := sys.AuditTelemetry(); err != nil {
		t.Errorf("telemetry audit after stress: %v", err)
	}
	tl := sys.Timeline()
	kf, err := sys.Kernel().Open(tl, name)
	if err != nil {
		t.Fatal(err)
	}
	defer kf.Close(tl)
	fc := kf.FileCache()
	resident := int64(0)
	fc.WalkResident(nil, 0, fc.Span(), func(int64) { resident++ })
	if got := fc.CachedPages(); got != resident {
		t.Errorf("bitmap popcount %d != page-index population %d", got, resident)
	}
	return fc, resident
}

// The paper-figure drivers run their threads one at a time (simtime.Group),
// so the race detector sees none of their sharing there. The two tests below
// give two of those shapes real host concurrency, with the cache a quarter of
// the file so that eviction races the loads.

// TestParallelMmapStress is Table 4's shape: four goroutines, each with its
// own descriptor and mapping of one file, load 16KB at a time through
// CROSS-LIB's mmap path — two stream one half of the file each, two load at
// random over all of it — while the library's bitmap scans prefetch ahead.
func TestParallelMmapStress(t *testing.T) {
	const (
		block     = 4096
		filePages = 1024
		load      = 4 * block
		workers   = 4
		iters     = 128
	)
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: filePages * block / 4,
		BlockSize:   block,
		Telemetry:   true,
		Approach:    crossprefetch.CrossPredictOpt,
	})
	if err := sys.CreateSynthetic(sys.Timeline(), "mmap", filePages*block); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tl := simtime.NewTimeline(0)
			f, err := sys.Open(tl, "mmap")
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close(tl)
			m := sys.Lib().Mmap(tl, f)
			half := int64(filePages*block/2) * int64(id%2)
			rng := rand.New(rand.NewSource(int64(id)))
			for i := int64(0); i < iters; i++ {
				off := half + i*load
				if id >= 2 {
					off = rng.Int63n(filePages*block/load) * load
				}
				if err := m.Load(tl, off, load, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkResidency(t, sys, "mmap")
}

// TestParallelReadersWritersStress is Figure 6's shape: four goroutines read
// 16KB at random from one file through CROSS-LIB while two write 16KB chunks
// of their own halves of it. Afterwards every chunk a writer wrote reads back
// as that writer's bytes.
func TestParallelReadersWritersStress(t *testing.T) {
	const (
		block     = 4096
		filePages = 1024
		chunk     = 4 * block
		chunks    = filePages * block / chunk
		readers   = 4
		writers   = 2
		iters     = 128
	)
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: filePages * block / 4,
		BlockSize:   block,
		Telemetry:   true,
		Approach:    crossprefetch.CrossPredictOpt,
	})
	if err := sys.CreateSynthetic(sys.Timeline(), "shared", filePages*block); err != nil {
		t.Fatal(err)
	}
	written := make([]map[int64]bool, writers) // chunk index → written, per writer
	var wg sync.WaitGroup
	for w := 0; w < readers+writers; w++ {
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
			rng := rand.New(rand.NewSource(int64(id)))
			buf := make([]byte, chunk)
			if id < readers {
				for i := 0; i < iters; i++ {
					if _, err := f.ReadAt(tl, buf, rng.Int63n(chunks)*chunk); err != nil {
						t.Error(err)
						return
					}
				}
				return
			}
			wr := id - readers
			written[wr] = map[int64]bool{}
			for i := range buf {
				buf[i] = byte(wr + 1)
			}
			for i := 0; i < iters; i++ {
				c := int64(wr)*chunks/writers + rng.Int63n(chunks/writers)
				if _, err := f.WriteAt(tl, buf, c*chunk); err != nil {
					t.Error(err)
					return
				}
				written[wr][c] = true
			}
		}(w)
	}
	wg.Wait()
	checkResidency(t, sys, "shared")

	tl := sys.Timeline()
	f, err := sys.Open(tl, "shared")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(tl)
	buf := make([]byte, chunk)
	for wr, cs := range written {
		for c := range cs {
			if _, err := f.ReadAt(tl, buf, c*chunk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{byte(wr + 1)}, chunk)) {
				t.Fatalf("chunk %d does not read back as writer %d's bytes", c, wr)
			}
		}
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

// strayAllocs is what a ring alloc guard lets through, per batch: a garbage
// collection in the measured window empties a sync.Pool's per-P chains, and
// refilling them shows as a handful of allocations in hundreds of batches
// (≤ 0.016 per batch in 120 runs). Anything the round trip itself allocates,
// even on one batch in ten, is above it.
const strayAllocs = 0.05

// ringBatchAllocs builds a system with memBytes of cache over one fileBytes
// file, hands prep the ring to stage one batch on (i counts the batches), and
// reports the heap allocations per Prep → Submit → Reap round trip once the
// pools are warm — counted exactly: testing.AllocsPerRun rounds down, and a
// buffer regrown on one batch in three would read as zero.
func ringBatchAllocs(t *testing.T, approach crossprefetch.Approach, memBytes, fileBytes int64,
	prep func(ring *crosslib.Ring, f *crosslib.File, i int) error) float64 {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc guard is meaningless")
	}
	sys := crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: memBytes, Approach: approach})
	tl := sys.Timeline()
	if err := sys.CreateSynthetic(tl, "data", fileBytes); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open(tl, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(tl)
	ring := sys.Lib().NewRing(0, 8)
	defer ring.Close()
	i := 0
	batch := func() {
		if err := prep(ring, f, i); err != nil {
			t.Fatal(err)
		}
		i++
		ring.Submit(tl)
		if cq := ring.Reap(tl, 1); len(cq) != 1 || cq[0].Err != nil {
			t.Fatalf("completions: %+v", cq)
		}
	}
	const warmup, runs = 2000, 500
	for i < warmup { // fills the cache, the pools, and every buffer to its working size
		batch()
	}
	var before, after runtime.MemStats
	reads := sys.Stack().Stats().ReadOps
	runtime.ReadMemStats(&before)
	for i < warmup+runs {
		batch()
	}
	runtime.ReadMemStats(&after)
	reads = sys.Stack().Stats().ReadOps - reads
	if cold := memBytes < fileBytes; cold && reads < runs || !cold && reads != 0 {
		t.Fatalf("%d device reads in %d batches with a %d-byte cache over a %d-byte file: not the path this guard is for",
			reads, runs, memBytes, fileBytes)
	}
	return float64(after.Mallocs-before.Mallocs) / runs
}

// TestWarmRingBatchAllocBound: one warm read prepped, submitted and reaped
// allocates nothing. The staged batch, Submit's scratch (SQEs, their ops, the
// storage vfs.RingEnter appends its CQEs to), the enter's frame (pending
// table, wait group) and the two CQ buffers Reap swaps are all reused; this
// batch cost 8 allocations before PR 16 and 4 before PR 19.
func TestWarmRingBatchAllocBound(t *testing.T) {
	buf := make([]byte, 16<<10)
	n := ringBatchAllocs(t, crossprefetch.CrossPredictOpt, 64<<20, 1<<20, func(ring *crosslib.Ring, f *crosslib.File, i int) error {
		return ring.PrepRead(f, buf, 0, 1)
	})
	if n >= strayAllocs {
		t.Errorf("warm one-read ring batch: %v allocs/batch, want 0", n)
	}
}

// TestColdRingBatchZeroAlloc is the warm guard's cold twin: the cache holds
// an eighth of the file, so a strided walk misses on every batch and goes
// stageRuns → lane → dispatch → completeRingChunk — chunk tags, lane slots,
// the drain batch and the result buffer, all recycled — with eviction on
// the way.
func TestColdRingBatchZeroAlloc(t *testing.T) {
	const fileBytes = 32 << 20
	buf := make([]byte, 16<<10)
	n := ringBatchAllocs(t, crossprefetch.CrossPredictOpt, fileBytes/8, fileBytes, func(ring *crosslib.Ring, f *crosslib.File, i int) error {
		return ring.PrepRead(f, buf, int64(i)*(1<<20+16<<10)%fileBytes, 1)
	})
	if n >= strayAllocs {
		t.Errorf("cold one-read ring batch: %v allocs/batch, want 0", n)
	}
}

// TestRingPrefetchBatchZeroAlloc: a prefetch SQE for a range nobody holds
// crosses, stages its chunks as prefetch and books them on completion — the
// same recycled objects, tagged the other way. Without the library shim: it
// would elide, with no crossing at all, an intent for a range its bitmap
// still shows requested from the walk's previous lap.
func TestRingPrefetchBatchZeroAlloc(t *testing.T) {
	const fileBytes = 32 << 20
	n := ringBatchAllocs(t, crossprefetch.OSOnly, fileBytes/8, fileBytes, func(ring *crosslib.Ring, f *crosslib.File, i int) error {
		return ring.PrepPrefetch(f, int64(i)*(1<<20+64<<10)%fileBytes, 64<<10, 1, 0)
	})
	if n >= strayAllocs {
		t.Errorf("one-prefetch ring batch: %v allocs/batch, want 0", n)
	}
}
