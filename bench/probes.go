package main

import (
	"fmt"
	"time"

	crossprefetch "repro"
	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/predictor"
	"repro/internal/rangetree"
	"repro/internal/readahead"
	"repro/internal/simtime"
	"repro/internal/vfs"
)

// A host probe times one layer's exported entry point from outside: after
// the measured phase it replays the recorded sample of the workload's
// (inode, block range) stream straight into the function, on the live
// state where the call only reads and on a scratch instance where it
// mutates. Five repeats of one pass over the sample each (one at the
// smoke test's scale); the metric is the median repeat's host ns per call
// (per page where named so).

// target is one sample access resolved against the live file system.
type target struct {
	ino    *fs.Inode
	fc     *pagecache.FileCache
	lo, hi int64 // blocks, inside the inode
}

type prober struct {
	sys     *crossprefetch.System
	targets []target
	costs   simtime.Costs
	repeats int
	calls   int64
	spans   []span
	epoch   time.Time
	err     error
}

// newProber resolves the sample. LSM ops carry no inode (the store hides
// which table a Get reads), so they replay against the largest live file
// — a table — with their key-space position folded into its length.
func newProber(ps *pass, tiny bool) *prober {
	pr := &prober{sys: ps.inst.sys, costs: simtime.DefaultCosts(), repeats: 5, epoch: ps.epoch}
	if tiny {
		pr.repeats = 1
	}
	fsys := pr.sys.FS()
	var standIn *fs.Inode
	for _, name := range fsys.List() {
		if ino, err := fsys.Open(name); err == nil && (standIn == nil || ino.Blocks() > standIn.Blocks()) {
			standIn = ino
		}
	}
	for _, a := range ps.logs[0].sample {
		ino := fsys.InodeByID(a.ino)
		if a.ino == 0 || ino == nil {
			ino = standIn
		}
		n := a.hi - a.lo
		if ino == nil || ino.Blocks() <= n {
			continue
		}
		lo := a.lo % (ino.Blocks() - n)
		pr.targets = append(pr.targets, target{ino, pr.sys.Cache().File(ino.ID()), lo, lo + n})
	}
	return pr
}

// time runs pass pr.repeats times and returns the median ns per unit;
// pass replays the whole sample once and reports the units it performed.
func (pr *prober) time(layer, name string, pass func() int) float64 {
	per := make([]float64, 0, pr.repeats)
	start := time.Now()
	for r := 0; r < pr.repeats; r++ {
		t0 := time.Now()
		units := pass()
		d := time.Since(t0)
		if units == 0 {
			return 0
		}
		pr.calls += int64(units)
		per = append(per, float64(d.Nanoseconds())/float64(units))
	}
	pr.spans = append(pr.spans, span{
		Parent: -1, Name: "probe " + name, Layer: layer,
		HostStart: int64(start.Sub(pr.epoch)), HostEnd: int64(time.Since(pr.epoch)),
	})
	return median(per)
}

func (pr *prober) fail(what string, err error) {
	if err != nil && pr.err == nil {
		pr.err = fmt.Errorf("probe %s: %w", what, err)
	}
}

// run executes every probe and fills the P-sourced metrics.
func (pr *prober) run(out map[string]float64) error {
	ts := pr.targets

	out["predictor.host_ns_per_observe"] = pr.time("predictor", "Predictor.Observe", func() int {
		pred := predictor.New(predictor.DefaultConfig())
		for _, t := range ts {
			pred.Observe(t.lo, t.hi-t.lo)
		}
		return len(ts)
	})
	out["predictor.ensemble_host_ns_per_observe"] = pr.time("predictor", "Ensemble.Observe", func() int {
		ens := predictor.NewEnsemble(predictor.DefaultEnsembleConfig(), 1)
		for _, t := range ts {
			ens.Observe(t.lo, t.hi-t.lo)
		}
		return len(ts)
	})

	// The range tree mutates (NeedsPrefetch marks what it returns as
	// requested), so each repeat starts from an empty tree.
	tl := simtime.NewTimeline(0)
	out["rangetree.host_ns_per_needs_prefetch"] = pr.time("rangetree", "Tree.NeedsPrefetch", func() int {
		tree := rangetree.New(rangetree.DefaultSpan, pr.costs)
		for _, t := range ts {
			tree.NeedsPrefetch(tl, t.lo, t.hi)
		}
		return len(ts)
	})
	out["rangetree.host_ns_per_mark_cached"] = pr.time("rangetree", "Tree.MarkCached", func() int {
		tree := rangetree.New(rangetree.DefaultSpan, pr.costs)
		for _, t := range ts {
			tree.MarkCached(tl, t.lo, t.hi)
		}
		return len(ts)
	})

	// The kernel's lock-free residency bitmap, read through its one
	// public accessor on the live cache (a nil timeline charges nothing).
	var runs []bitmap.Run
	out["bitmap.host_ns_per_missing_runs"] = pr.time("bitmap", "Shared.AppendMissingRuns", func() int {
		for _, t := range ts {
			runs = t.fc.AppendFastMissingRuns(nil, runs[:0], t.lo, t.hi)
		}
		return len(ts)
	})

	out["fs.host_ns_per_map_range"] = pr.time("fs", "Inode.MapRange", func() int {
		for _, t := range ts {
			t.ino.MapRange(t.lo, t.hi)
		}
		return len(ts)
	})

	var ra readahead.State
	raCfg := readahead.DefaultConfig()
	out["readahead.host_ns_per_on_demand"] = pr.time("readahead", "State.OnDemand", func() int {
		for i, t := range ts {
			ra.OnDemand(raCfg, t.lo, t.hi-t.lo, t.ino.Blocks(), false, i%2 == 0)
		}
		return len(ts)
	})

	pr.kernelProbes(out)
	pr.cacheProbes(out)
	pr.deviceProbes(out)

	ledger := simtime.NewLedger("probe")
	var at simtime.Time
	out["simtime.host_ns_per_ledger_reserve"] = pr.time("simtime", "Ledger.ReserveAt", func() int {
		for range ts {
			_, at = ledger.ReserveAt(at, simtime.Microsecond)
		}
		return len(ts)
	})

	out["bench.probe_ops"] = float64(pr.calls)
	return pr.err
}

// scratchBlocks is the size of the scratch files and caches the mutating
// probes run against: 16MB, resident throughout.
const scratchBlocks = 4096

// kernelProbes time the system-call layer alone — no CROSS-LIB above it —
// on a scratch kernel whose one file is fully resident.
func (pr *prober) kernelProbes(out map[string]float64) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: 4 * scratchBlocks * 4096})
	tl := sys.Timeline()
	pr.fail("create scratch file", sys.CreateSynthetic(tl, "scratch", scratchBlocks*4096))
	f, err := sys.Open(tl, "scratch")
	if err != nil {
		pr.fail("open scratch file", err)
		return
	}
	kf := f.Kernel()
	buf := make([]byte, 64<<10)
	for off := int64(0); off < scratchBlocks*4096; off += int64(len(buf)) {
		_, err := kf.ReadAt(tl, buf, off)
		pr.fail("warm scratch file", err)
	}
	// fold maps a sample access into the scratch file, at most one
	// buffer long.
	fold := func(t target) (off, bytes int64) {
		n := t.hi - t.lo
		if max := int64(len(buf)) / 4096; n > max {
			n = max
		}
		return t.lo % (scratchBlocks - n) * 4096, n * 4096
	}
	out["vfs.host_ns_per_read_hit"] = pr.time("vfs", "File.ReadAt", func() int {
		for _, t := range pr.targets {
			off, n := fold(t)
			_, err := kf.ReadAt(tl, buf[:n], off)
			pr.fail("kernel ReadAt", err)
		}
		return len(pr.targets)
	})
	out["vfs.host_ns_per_readahead_info"] = pr.time("vfs", "File.ReadaheadInfo", func() int {
		for _, t := range pr.targets {
			off, n := fold(t)
			info := kf.ReadaheadInfo(tl, vfs.CacheInfoRequest{Offset: off, Bytes: n}, nil)
			pr.fail("ReadaheadInfo", info.PrefetchErr)
		}
		return len(pr.targets)
	})
}

// cacheProbes time the page cache's lookup on a resident scratch file and
// its insert path on a full one, where every insertion must evict.
func (pr *prober) cacheProbes(out map[string]float64) {
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: scratchBlocks, Costs: pr.costs}, nil)
	tl := simtime.NewTimeline(0)
	fc := cache.File(1)
	fc.InsertRange(tl, 0, scratchBlocks, pagecache.InsertOptions{MarkerAt: -1})
	var res pagecache.LookupResult
	out["pagecache.host_ns_per_lookup_page"] = pr.time("pagecache", "FileCache.LookupRangeInto", func() int {
		pages := 0
		for _, t := range pr.targets {
			n := t.hi - t.lo
			lo := t.lo % (scratchBlocks - n)
			fc.LookupRangeInto(tl, lo, lo+n, &res)
			pages += int(n)
		}
		return pages
	})
	next := int64(scratchBlocks)
	out["pagecache.host_ns_per_insert_evict_page"] = pr.time("pagecache", "FileCache.InsertRange", func() int {
		pages := 0
		for _, t := range pr.targets {
			n := t.hi - t.lo
			fc.InsertRange(tl, next, next+n, pagecache.InsertOptions{MarkerAt: -1})
			next += n
			pages += int(n)
		}
		return pages
	})
}

// deviceProbes time one command through a plug, through a width-1 stack,
// and against the raw device: the last two differ by the stack's piece
// math.
func (pr *prober) deviceProbes(out map[string]float64) {
	stack := blockdev.NewStack(blockdev.StackConfig{})
	dev := blockdev.New(blockdev.NVMeConfig())
	plug := stack.NewPlug(blockdev.PlugConfig{Plugged: true})
	tl := simtime.NewTimeline(0)
	out["blockdev.host_ns_per_plug_cmd"] = pr.time("blockdev", "StackPlug.Add+FlushSync", func() int {
		for _, t := range pr.targets {
			plug.Reset()
			plug.Add(blockdev.OpRead, t.lo*4096, (t.hi-t.lo)*4096, t.lo)
			pr.fail("FlushSync", plug.FlushSync(tl, blockdev.RetryPolicy{}))
		}
		return len(pr.targets)
	})
	out["blockdev.host_ns_per_stack_access"] = pr.time("blockdev", "Stack.Access", func() int {
		for _, t := range pr.targets {
			pr.fail("Stack.Access", stack.Access(tl, blockdev.OpRead, t.lo*4096, (t.hi-t.lo)*4096))
		}
		return len(pr.targets)
	})
	out["blockdev.host_ns_per_device_access"] = pr.time("blockdev", "Device.Access", func() int {
		for _, t := range pr.targets {
			pr.fail("Device.Access", dev.Access(tl, blockdev.OpRead, t.lo*4096, (t.hi-t.lo)*4096))
		}
		return len(pr.targets)
	})
}
