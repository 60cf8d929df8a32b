// Parallel benchmarks: real wall-clock scalability of the simulator's hot
// path across GOMAXPROCS (run with -cpu 1,2,4,8). Unlike the virtual-time
// experiment benchmarks, these measure how the *host* implementation of the
// cache behaves under real concurrency — the per-file page-index lock, the
// cache bitmap, the LRU lists, and the inode tables — which is exactly the
// contention the paper's §3.2 measures on Linux and §4.4/§4.5 remove.
//
// Run the ladder with plain `go test -bench Parallel -cpu 1,2,4,8 .`; it is
// the only 1/2/4/8-proc ladder until bench/ grows one (ROADMAP item 5).
package crossprefetch_test

import (
	"sync/atomic"
	"testing"

	crossprefetch "repro"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/vfs"
)

const (
	pbBlock     = 4096
	pbFilePages = 1024 // 4MB per file
	pbReadPages = 16   // 64KB per read
)

// pbSystem builds a kernel-only system whose working set fits in cache.
func pbSystem(b *testing.B, files int) (*crossprefetch.System, []string) {
	b.Helper()
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: int64(files+8) * pbFilePages * pbBlock * 2,
		BlockSize:   pbBlock,
	})
	tl := sys.Timeline()
	names := make([]string, files)
	for i := range names {
		names[i] = "pb" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := sys.CreateSynthetic(tl, names[i], pbFilePages*pbBlock); err != nil {
			b.Fatal(err)
		}
	}
	return sys, names
}

// pbWarm faults a file fully into the cache.
func pbWarm(b *testing.B, sys *crossprefetch.System, name string) {
	b.Helper()
	tl := sys.Timeline()
	f, err := sys.Kernel().Open(tl, name)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close(tl)
	buf := make([]byte, 256<<10)
	for off := int64(0); off < pbFilePages*pbBlock; off += int64(len(buf)) {
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// reportPages converts a page counter into the pages/s headline metric.
func reportPages(b *testing.B, pages *atomic.Int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(pages.Load())/s, "pages/s")
	}
}

// BenchmarkParallelReadManyFiles: 64 warm files, every worker cycles
// through all of them with sequential 64KB reads. Stresses the global
// structures shared across inodes: the LRU lists and the inode table.
func BenchmarkParallelReadManyFiles(b *testing.B) {
	const files = 64
	sys, names := pbSystem(b, files)
	for _, n := range names {
		pbWarm(b, sys, n)
	}
	var pages, workers atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := workers.Add(1)
		tl := simtime.NewTimeline(0)
		fs := make([]*vfs.File, files)
		for i, n := range names {
			f, err := sys.Kernel().Open(tl, n)
			if err != nil {
				b.Fatal(err)
			}
			fs[i] = f
		}
		buf := make([]byte, pbReadPages*pbBlock)
		i := uint64(id) * 7
		for pb.Next() {
			f := fs[i%files]
			off := (int64(i/files) * pbReadPages % pbFilePages) * pbBlock
			if _, err := f.ReadAt(tl, buf, off); err != nil {
				b.Fatal(err)
			}
			pages.Add(pbReadPages)
			i++
		}
	})
	reportPages(b, &pages)
}

// BenchmarkParallelReadSharedFile: one warm file, every worker reads it
// through its own descriptor at a private stride. Stresses the per-inode
// structures: the page-index lock, the cache bitmap, and per-inode
// counters — the shared-file scenario of §4.5.
func BenchmarkParallelReadSharedFile(b *testing.B) {
	sys, names := pbSystem(b, 1)
	pbWarm(b, sys, names[0])
	var pages, workers atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := workers.Add(1)
		tl := simtime.NewTimeline(0)
		f, err := sys.Kernel().Open(tl, names[0])
		if err != nil {
			b.Fatal(err)
		}
		i := uint64(id) * 13
		buf := make([]byte, pbReadPages*pbBlock)
		for pb.Next() {
			off := (int64(i) * pbReadPages % pbFilePages) * pbBlock
			if _, err := f.ReadAt(tl, buf, off); err != nil {
				b.Fatal(err)
			}
			pages.Add(pbReadPages)
			i++
		}
	})
	reportPages(b, &pages)
}

// BenchmarkParallelMixedReadPrefetch: one large shared file; odd workers
// demand-read the warm front half while even workers churn the back half —
// evicting a slice via fadvise(DONTNEED) and prefetching it back through
// readahead_info. Readers' lookups and bitmap queries race against
// prefetch inserts holding the page-index lock exclusively, which is the
// §4.4 delineation claim under real concurrency.
func BenchmarkParallelMixedReadPrefetch(b *testing.B) {
	sys, names := pbSystem(b, 4)
	pbWarm(b, sys, names[0])
	const (
		frontPages = pbFilePages / 2
		slicePages = 64 // 256KB churn unit
	)
	var pages, workers atomic.Int64
	b.SetParallelism(2) // ensure both classes exist even at GOMAXPROCS=1
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := workers.Add(1)
		tl := simtime.NewTimeline(0)
		f, err := sys.Kernel().Open(tl, names[0])
		if err != nil {
			b.Fatal(err)
		}
		if id%2 == 1 {
			// Reader: sequential warm reads over the front half.
			i := uint64(id) * 13
			buf := make([]byte, pbReadPages*pbBlock)
			for pb.Next() {
				off := (int64(i) * pbReadPages % frontPages) * pbBlock
				if _, err := f.ReadAt(tl, buf, off); err != nil {
					b.Fatal(err)
				}
				pages.Add(pbReadPages)
				i++
			}
			return
		}
		// Churner: evict one back-half slice, prefetch it back.
		i := uint64(id) * 29
		for pb.Next() {
			lo := frontPages + (int64(i)*slicePages)%(pbFilePages-frontPages)
			hi := lo + slicePages
			if hi > pbFilePages {
				hi = pbFilePages
			}
			f.Fadvise(tl, vfs.AdvDontNeed, lo*pbBlock, (hi-lo)*pbBlock)
			info := f.ReadaheadInfo(tl, vfs.CacheInfoRequest{
				Offset: lo * pbBlock, Bytes: (hi - lo) * pbBlock,
				LimitOverride: hi - lo,
			}, nil)
			pages.Add(info.PrefetchedPages)
			i++
		}
	})
	reportPages(b, &pages)
}

// BenchmarkParallelBitmapQuery: cache-state queries (Span, CachedPages,
// the bitmap fast path) on a file that a writer class keeps inserting
// into. They are lock-free atomic reads, so they do not wait behind an
// insert's exclusive page-index lock.
func BenchmarkParallelBitmapQuery(b *testing.B) {
	sys, names := pbSystem(b, 1)
	pbWarm(b, sys, names[0])
	tl0 := sys.Timeline()
	f0, err := sys.Kernel().Open(tl0, names[0])
	if err != nil {
		b.Fatal(err)
	}
	fc := f0.FileCache()
	var queries, workers atomic.Int64
	b.SetParallelism(2) // ensure a writer exists even at GOMAXPROCS=1
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := workers.Add(1)
		tl := simtime.NewTimeline(0)
		if id%4 == 2 {
			// Writer: churn a private 64-page window of the file.
			lo := 64 * (id % 16)
			for pb.Next() {
				fc.RemoveRange(tl, lo, lo+64)
				fc.InsertRange(tl, lo, lo+64, pagecache.InsertOptions{MarkerAt: -1})
			}
			return
		}
		for pb.Next() {
			_ = fc.Span()
			_ = fc.CachedPages()
			queries.Add(1)
		}
	})
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(queries.Load())/s, "queries/s")
	}
}
