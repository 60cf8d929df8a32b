package crosslib

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// The budget loop (DESIGN.md §24): the evictor's mark sits above the halt
// mark, one gate reads the halt and aggressive marks for every entry point,
// and the evictor's bookkeeping holds under concurrency.

// fillTo brings the cache to exactly used resident pages by reading a file
// of the missing size through a kernel descriptor the library never sees
// (so its evictor has no claim on the pages).
func fillTo(t *testing.T, v *vfs.VFS, tl *simtime.Timeline, used int64) {
	t.Helper()
	need := used - v.Cache().Used()
	if need < 0 {
		t.Fatalf("cache already holds %d pages, want %d", v.Cache().Used(), used)
	}
	if need > 0 {
		name := fmt.Sprintf("ballast-%d", used)
		if _, err := v.FS().CreateSynthetic(tl, name, need*4096); err != nil {
			t.Fatal(err)
		}
		kf, err := v.Open(tl, name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64<<10)
		for off := int64(0); off < need*4096; off += int64(len(buf)) {
			kf.ReadAt(tl, buf, off)
		}
	}
	if got := v.Cache().Used(); got != used {
		t.Fatalf("cache holds %d pages after the fill, want %d", got, used)
	}
}

// TestStreamKeepsItsPrefetcher is the paper's streaming case at an eighth of
// the benchmark's geometry — cache, range-tree node, InactiveAge and poll
// interval all scaled together, so the ratios that decide it are
// seq_cold_scan's: 16 nodes to the cache, 0.8 % of it read between two
// polls, half of it streamed per InactiveAge. Once the cache has filled,
// reclaim runs ahead of the halt mark, so the library never drops an intent
// for want of memory and the kernel demand-fetches next to nothing. With
// the evictor waking at the halt mark itself, every evicted node cost one
// burst of dropped intents and demand misses until the next poll.
func TestStreamKeepsItsPrefetcher(t *testing.T) {
	const (
		cachePages = 8192 // 32 MB
		fileBytes  = 96 << 20
		readBytes  = 64 << 10
	)
	v := newKernel(cachePages)
	rec := telemetry.NewRecorder(0)
	v.SetTelemetry(rec)
	opt := CrossPredictOpt.Options()
	opt.RangeTreeSpan /= 8
	opt.InactiveAge /= 8
	opt.EvictCheckOps /= 8
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)
	if _, err := v.FS().CreateSynthetic(tl, "stream", fileBytes); err != nil {
		t.Fatal(err)
	}
	f, err := rt.Open(tl, "stream")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, readBytes)
	var filled bool
	var dropsAtFill, demandAtFill, pagesAfterFill int64
	for off := int64(0); off < fileBytes; off += readBytes {
		if _, err := f.ReadAt(tl, buf, off); err != nil {
			t.Fatal(err)
		}
		switch {
		case filled:
			pagesAfterFill += readBytes / 4096
		case rt.Stats().EvictedPages > 0:
			filled = true
			dropsAtFill = rt.Stats().DroppedLowMemory
			demandAtFill = rec.CounterValue(telemetry.CtrVFSDemandFetchPages)
		}
	}
	if !filled || pagesAfterFill < cachePages*3/2 {
		t.Fatalf("the stream never turned the cache over: filled=%v, %d pages read after", filled, pagesAfterFill)
	}
	if got := rt.Stats().DroppedLowMemory; got != dropsAtFill {
		t.Errorf("%d intents dropped for low memory after the cache filled, want 0", got-dropsAtFill)
	}
	demand := rec.CounterValue(telemetry.CtrVFSDemandFetchPages) - demandAtFill
	if demand*100 >= pagesAfterFill {
		t.Errorf("kernel demand-fetched %d of %d pages read after the cache filled, want < 1%%", demand, pagesAfterFill)
	}
}

// TestEvictorWakesAboveHalt: with free memory between the halt mark and the
// evictor's mark, one read both gets its prefetch intent through the gate
// and has its budget poll book an evict pass.
func TestEvictorWakesAboveHalt(t *testing.T) {
	const budget = 10_000
	v := newKernel(100_000)
	opt := CrossPredictOpt.Options()
	opt.MemoryBudgetPages = budget
	opt.EvictCheckOps = 1
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)

	// A file the library knows and will find inactive, resident up to the
	// middle of the band between the two marks.
	used := int64(budget * (1 - (lowWaterFrac+evictWaterFrac)/2))
	if _, err := v.FS().CreateSynthetic(tl, "cold", used*4096); err != nil {
		t.Fatal(err)
	}
	cold, err := rt.Open(tl, "cold")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16384)
	for off := int64(0); off < used*4096; off += int64(len(buf)) {
		cold.ReadAt(tl, buf, off)
	}
	if got := v.Cache().Used(); got != used {
		t.Fatalf("setup: %d pages resident, want %d", got, used)
	}
	if free := rt.freeFrac(); free <= lowWaterFrac || free >= evictWaterFrac {
		t.Fatalf("setup: free fraction %.4f is not between the marks", free)
	}
	tl.Advance(2 * opt.InactiveAge)

	if _, err := v.FS().CreateSynthetic(tl, "hot", 64<<20); err != nil {
		t.Fatal(err)
	}
	hot, err := rt.Open(tl, "hot")
	if err != nil {
		t.Fatal(err)
	}
	before := rt.Stats()
	// The first read of a descriptor has no pattern yet: a coverage intent.
	if _, err := hot.ReadAt(tl, buf, 32<<20); err != nil {
		t.Fatal(err)
	}
	after := rt.Stats()
	if after.DroppedLowMemory != before.DroppedLowMemory {
		t.Errorf("the intent was halted above the halt mark (%d drops)", after.DroppedLowMemory-before.DroppedLowMemory)
	}
	if after.PrefetchCalls == before.PrefetchCalls {
		t.Error("no prefetch was issued: the intent was not admitted")
	}
	if after.EvictedPages == before.EvictedPages {
		t.Error("the same op's poll booked no evict pass: nothing was evicted")
	}
}

// TestBudgetGate drives every entry point that asks the budget gate at each
// level and pins what the level does to the intent — and that a refused
// intent, whoever formed it, is one dropped-low-memory event and one tick of
// Stats.DroppedLowMemory.
func TestBudgetGate(t *testing.T) {
	const budget = 1_000
	const openBlocks = openPrefetchBytes / 4096
	raMax := vfs.DefaultConfig().RA.MaxPages
	levels := []struct {
		name string
		used int64 // resident pages of the 1 000-page budget
		want budgetLevel
	}{
		{"halt", 900, budgetHalt},
		{"static", 800, budgetStatic},
		{"at-high-mark", 700, budgetUnclipped},
		{"aggressive", 600, budgetAggressive},
	}
	entries := []struct {
		name string
		// run forms one intent (the open entry by opening a second file).
		run func(t *testing.T, rt *Runtime, tl *simtime.Timeline, f *File, m *Mapping)
		// issued is the window in pages the library asks the kernel for,
		// by level; 0 means no crossing.
		issued map[budgetLevel]int64
	}{
		{"predictor", func(t *testing.T, rt *Runtime, tl *simtime.Timeline, f *File, m *Mapping) {
			f.prefetchAsync(tl, 8192, 256, budgetUnasked, false)
		}, map[budgetLevel]int64{budgetStatic: raMax, budgetUnclipped: 256, budgetAggressive: 256}},
		{"coverage", func(t *testing.T, rt *Runtime, tl *simtime.Timeline, f *File, m *Mapping) {
			f.coveragePrefetch(tl, 8192)
		}, map[budgetLevel]int64{budgetStatic: raMax, budgetUnclipped: 64, budgetAggressive: 1024}},
		{"open", func(t *testing.T, rt *Runtime, tl *simtime.Timeline, f *File, m *Mapping) {
			if _, err := rt.Open(tl, "opened"); err != nil {
				t.Fatal(err)
			}
		}, map[budgetLevel]int64{budgetAggressive: openBlocks}},
		{"mmap-scan", func(t *testing.T, rt *Runtime, tl *simtime.Timeline, f *File, m *Mapping) {
			m.scheduleScan(tl)
		}, map[budgetLevel]int64{budgetStatic: 64, budgetUnclipped: 64, budgetAggressive: 64}},
	}
	for _, e := range entries {
		for _, l := range levels {
			t.Run(e.name+"/"+l.name, func(t *testing.T) {
				v := newKernel(100_000)
				opt := CrossPredictOpt.Options()
				opt.MemoryBudgetPages = budget
				opt.AggressiveEvict = false // no pass between the fill and the intent
				rt := New(v, opt)
				rec := telemetry.NewRecorder(64)
				rt.SetTelemetry(rec)
				tl := simtime.NewTimeline(0)
				for _, name := range []string{"f", "opened"} {
					if _, err := v.FS().CreateSynthetic(tl, name, 64<<20); err != nil {
						t.Fatal(err)
					}
				}
				// Opened while memory is plentiful: the optimistic open
				// leaves the first 2 MB resident, the dense frontier the
				// scan needs.
				f, err := rt.Open(tl, "f")
				if err != nil {
					t.Fatal(err)
				}
				m := rt.Mmap(tl, f)
				fillTo(t, v, tl, l.used)

				if got := rt.budgetGate(tl, f.sf, 0, 0); got != l.want {
					t.Fatalf("gate reads %d resident pages of %d as level %d, want %d", l.used, budget, got, l.want)
				}
				stats := rt.Stats()
				events, _ := rec.OutcomeTotals(telemetry.OutcomeDroppedLowMemory)
				_, issued := rec.OutcomeTotals(telemetry.OutcomeIssued)

				e.run(t, rt, tl, f, m)

				refused := int64(0)
				if l.want == budgetHalt {
					refused = 1
				}
				if got := rt.Stats().DroppedLowMemory - stats.DroppedLowMemory; got != refused {
					t.Errorf("DroppedLowMemory advanced by %d, want %d", got, refused)
				}
				if got, _ := rec.OutcomeTotals(telemetry.OutcomeDroppedLowMemory); got-events != refused {
					t.Errorf("%d dropped-low-memory events, want %d", got-events, refused)
				}
				if _, got := rec.OutcomeTotals(telemetry.OutcomeIssued); got-issued != e.issued[l.want] {
					t.Errorf("issued a window of %d pages, want %d", got-issued, e.issued[l.want])
				}
			})
		}
	}
}

// newTieredKernel is newKernel over a width-1 local device tiered over a
// half-remote NVMe-oF device 200µs away, with cross-tier prefetch on.
func newTieredKernel(capacity int64) (*vfs.VFS, *blockdev.Stack) {
	costs := simtime.DefaultCosts()
	st := blockdev.NewStack(blockdev.StackConfig{
		Local: blockdev.NVMeConfig(),
		Width: 1,
		Tier: blockdev.TierConfig{
			Enabled:           true,
			Remote:            blockdev.RemoteNVMeConfigRTT(200 * simtime.Microsecond),
			RemoteFrac:        0.5,
			CrossTierPrefetch: true,
		},
	})
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: capacity, Costs: costs}, nil)
	cfg := vfs.DefaultConfig()
	cfg.AllowLimitOverride = true
	return vfs.NewStack(cfg, fsys, st, cache), st
}

// TestStaticClipIsTheKernelWindow: between the halt and high marks a
// stream's intent is clipped to the kernel's static window for its range,
// and reaches readahead_info that long. Over a remote extent of a tiered
// stack that window is RA.MaxPages × the RTT boost, the depth the kernel
// itself reads ahead with there (DESIGN.md §16); over a local extent, and
// on an untiered stack, it is RA.MaxPages. Clipped to the bare RA.MaxPages
// over remote extents too, the stream caught up with its own prefetch.
func TestStaticClipIsTheKernelWindow(t *testing.T) {
	const (
		budget     = 1_000
		extBlocks  = blockdev.ExtentSize / 4096
		openBlocks = openPrefetchBytes / 4096
	)
	raMax := vfs.DefaultConfig().RA.MaxPages
	cases := []struct {
		name   string
		tiered bool
		remote bool  // the intent starts on a remote extent
		blocks int64 // the intent's length
	}{
		{"remote-extent", true, true, 256},
		{"local-extent", true, false, extBlocks},
		{"untiered", false, false, 256},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var st *blockdev.Stack
			v := newKernel(100_000)
			if c.tiered {
				v, st = newTieredKernel(100_000)
			}
			rec := telemetry.NewRecorder(0)
			v.SetTelemetry(rec)
			opt := CrossPredictOpt.Options()
			opt.MemoryBudgetPages = budget
			opt.AggressiveEvict = false // no pass between the fill and the intent
			rt := New(v, opt)
			tl := simtime.NewTimeline(0)
			if _, err := v.FS().CreateSynthetic(tl, "f", 64<<20); err != nil {
				t.Fatal(err)
			}
			f, err := rt.Open(tl, "f")
			if err != nil {
				t.Fatal(err)
			}
			fillTo(t, v, tl, 800)
			if got := rt.budgetGate(tl, f.sf, 0, 0); got != budgetStatic {
				t.Fatalf("setup: the gate reads level %d, want budgetStatic", got)
			}

			// The stack's boost for a logical range, read independently of
			// the kernel's window arithmetic.
			boost := func(lo, hi int64) int64 {
				b := int64(1)
				if st == nil {
					return b
				}
				for _, pr := range f.kf.Inode().MapRange(lo, hi) {
					b = max(b, st.PrefetchBoostFor(pr.Phys*4096, pr.Count*4096))
				}
				return b
			}
			// The first extent of the wanted kind past what the open left
			// resident.
			lo := int64(openBlocks)
			for (boost(lo, lo+extBlocks) > 1) != c.remote {
				lo += extBlocks
			}
			want := raMax * boost(lo, lo+c.blocks)
			if c.remote && want == raMax {
				t.Fatal("setup: the remote extent earns no boost")
			}

			before := rec.CounterValue(telemetry.CtrKernelRequestedPages)
			f.prefetchAsync(tl, lo, c.blocks, budgetUnasked, false)
			if got := rec.CounterValue(telemetry.CtrKernelRequestedPages) - before; got != want {
				t.Errorf("an intent of %d blocks reached readahead_info with %d pages, want %d", c.blocks, got, want)
			}
		})
	}
}

// TestEvictedPagesMonotone: the pass credits residency before minus after
// its fadvise, and a reader inserting into the file between the two reads
// makes that delta negative. EvictedPages must only ever grow.
func TestEvictedPagesMonotone(t *testing.T) {
	v := newKernel(100_000)
	opt := CrossPredictOpt.Options()
	opt.MemoryBudgetPages = 64
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)
	const fileBytes = 8 << 20
	if _, err := v.FS().CreateSynthetic(tl, "f", fileBytes); err != nil {
		t.Fatal(err)
	}
	// The library's descriptor is never read through, so the file stays
	// inactive and every pass drops it whole.
	if _, err := rt.Open(tl, "f"); err != nil {
		t.Fatal(err)
	}
	fillTo(t, v, tl, v.Cache().Used()+64) // over budget whatever the pass frees

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rtl := simtime.NewTimeline(tl.Now())
		kf, err := v.Open(rtl, "f")
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		for off := int64(0); ; off = (off + 4096) % fileBytes {
			select {
			case <-stop:
				return
			default:
			}
			kf.ReadAt(rtl, buf, off)
		}
	}()

	var last int64
	for i := 0; i < 2000; i++ {
		wtl := simtime.NewTimeline(tl.Now().Add(simtime.Duration(i+2) * opt.InactiveAge))
		rt.evictPass(wtl, wtl.Now())
		got := rt.Stats().EvictedPages
		if got < last {
			t.Fatalf("pass %d: EvictedPages fell from %d to %d", i, last, got)
		}
		last = got
	}
	if last == 0 {
		t.Fatal("no pass evicted anything: the test exercised nothing")
	}
}

// TestRingPollsEveryEpoch: a ring submit polls the budget once, with the
// tick of the last op it admitted. Batches of five meet a multiple of
// EvictCheckOps = 32 only every 160 ops; the poll is due whenever a multiple
// was crossed since the last one.
func TestRingPollsEveryEpoch(t *testing.T) {
	v := newKernel(100_000)
	// Predict off: the helper pool's only jobs are evict passes.
	opt := Options{Enabled: true, AggressiveEvict: true, MemoryBudgetPages: 64}
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)
	if _, err := v.FS().CreateSynthetic(tl, "f", 320*4096); err != nil {
		t.Fatal(err)
	}
	f, err := rt.Open(tl, "f")
	if err != nil {
		t.Fatal(err)
	}
	fillTo(t, v, tl, 64) // nothing free: every poll books a pass
	ring := rt.NewRing(0, 8)
	buf := make([]byte, 5*4096)
	for op := int64(0); op < 320; op += 5 {
		for i := int64(0); i < 5; i++ {
			if err := ring.PrepRead(f, buf[i*4096:(i+1)*4096], (op+i)*4096, uint64(op+i)); err != nil {
				t.Fatal(err)
			}
		}
		if n := ring.Submit(tl); n != 5 {
			t.Fatalf("submitted %d ops, want 5", n)
		}
		ring.Reap(tl, 5)
	}
	if got, want := rt.Stats().WorkerJobs, 320/rt.Options().EvictCheckOps; got != want {
		t.Fatalf("320 ops in batches of 5 polled the budget %d times, want %d", got, want)
	}
}

// TestStaticClipFollowsTheLead: at budgetStatic the library's window is the
// kernel's static window times the descriptor's lead — RA.MaxPages while
// the lead is 1, twice that once a sequential demand read on the kernel
// descriptor has waited on in-flight pages of the idle device.
func TestStaticClipFollowsTheLead(t *testing.T) {
	const budget, blocks = 1_000, 256
	raMax := vfs.DefaultConfig().RA.MaxPages
	v := newKernel(100_000)
	rec := telemetry.NewRecorder(0)
	v.SetTelemetry(rec)
	opt := CrossPredictOpt.Options()
	opt.MemoryBudgetPages = budget
	opt.AggressiveEvict = false // no pass between the fill and the intents
	rt := New(v, opt)
	tl := simtime.NewTimeline(0)
	if _, err := v.FS().CreateSynthetic(tl, "f", 64<<20); err != nil {
		t.Fatal(err)
	}
	f, err := rt.Open(tl, "f")
	if err != nil {
		t.Fatal(err)
	}
	fillTo(t, v, tl, 800)
	if got := rt.budgetGate(tl, f.sf, 0, 0); got != budgetStatic {
		t.Fatalf("setup: the gate reads level %d, want budgetStatic", got)
	}
	window := func(lo int64) int64 {
		t.Helper()
		before := rec.CounterValue(telemetry.CtrKernelRequestedPages)
		f.prefetchAsync(tl, lo, blocks, budgetUnasked, false)
		return rec.CounterValue(telemetry.CtrKernelRequestedPages) - before
	}

	if got := f.kf.Lead(); got != 1 {
		t.Fatalf("fresh descriptor: lead %d, want 1", got)
	}
	if got := window(4096); got != raMax {
		t.Errorf("lead 1: an intent of %d blocks reached readahead_info with %d pages, want %d", blocks, got, raMax)
	}

	// A late sequential read on the kernel descriptor: block b+1 is put in
	// flight by readahead(2) right after a read of block b, and read half
	// way through its fetch.
	const b = 2048
	buf := make([]byte, 4096)
	if _, err := f.kf.ReadAt(tl, buf, b*4096); err != nil {
		t.Fatal(err)
	}
	f.kf.Readahead(tl, (b+1)*4096, 4096)
	ready := f.kf.FileCache().LookupRange(nil, b+1, b+2).ReadyAt
	if ready <= tl.Now() {
		t.Fatal("setup: readahead(2) left nothing in flight")
	}
	tl.Advance(ready.Sub(tl.Now()) / 2)
	if _, err := f.kf.ReadAt(tl, buf, (b+1)*4096); err != nil {
		t.Fatal(err)
	}
	if got := f.kf.Lead(); got != 2 {
		t.Fatalf("after a late read on an idle device: lead %d, want 2", got)
	}
	if got, want := window(8192), f.kf.StaticWindow(8192, 8192+blocks)*2; got != want || want != 2*raMax {
		t.Errorf("lead 2: an intent of %d blocks reached readahead_info with %d pages, want %d (2 × %d)", blocks, got, want, raMax)
	}
}
