package vfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// TestGoldenWayDown pins virtual time, device accounting, telemetry and the
// span tree of every kernel I/O entry point — sync read/write with RMW
// edges, fsync, readahead(2), prefetching and export-only readahead_info, mmap
// loads with and without MADV_RANDOM, ring read/prefetch — on one
// seeded timeline, on a bare device and on a width-2 half-remote stack,
// over a file with holes and three extents under a transient + persistent
// fault plan. The cells keep the names they were recorded under, from
// when a read path could also dispatch unplugged.
//
// The expected values were recorded by running this file, unchanged,
// against the commit before the device paths were collapsed into one
// (PR 13, e2162c6). To re-record after an intended virtual-time change,
// copy this file into a clone of the parent commit and run it there with
// -v: every cell logs its actual values.
//
// Re-recorded on purpose once since, in PR 22 (DESIGN.md §16): a prefetch
// read no longer promotes into a capped tier that is past its low demotion
// mark, which moves the stack cell — fill writes on the two local members
// 88 → 53 commands — and not the bare one. And for drop-behind, the
// telemetry hash of every cell and nothing else: the recorder's JSON
// gained the lib_dropped_behind_pages counter and the dropped-behind
// outcome, both zero here (with the two names taken out again the
// previous hashes come back). And once more for the capped tier's
// demotion clock (DESIGN.md §16): the tier demotes by demand-read heat
// down to its cap, not by recency down to 7/8 of it, and writes demote
// too, which moves the stack cell and not the bare one. And for range
// faults that fail every request overlapping them, not only those that
// start inside, which moves both cells. And for the predictor arm the
// recorder no longer has (Leap): its all-zero row left the recorder's
// JSON, which moves the telemetry hash of both cells and nothing else
// (with that row left out of the parent's export, the parent reproduces
// both hashes). And once more for the brownout controller's removal: the
// stack cell used to run with it on; with it gone, what the calls return
// moves that cell's results hash, and now, the device accounting and the
// spans hold. The recorder's JSON lost the two
// brownout outcome rows, which moves both cells' telemetry hash. The
// parent with the controller off and those rows left out of its export
// reproduces both cells. And once more when the ring lost its write SQE and
// its read deadlines: the ring legs no longer submit the three writes, and
// their two reads with a deadline (one expired, one late) are plain reads,
// which moves every field of both cells. The parent commit running this
// edited schedule reproduces both cells field for field.
//
// And once more when readahead_info lost its vectored form, its query flag
// and its ReadyAt result: the vectored call is now one call over
// [1MB, 4MB) clamped to its override of 512 pages, the query an export-only
// call over the whole file, and each call's result line drops Granted and
// ReadyAt and gains the exported window's bounds and count. That moves the
// telemetry, span and results hashes of both cells, and the stack cell's
// now and device accounting. The parent commit running this edited
// schedule reproduces both cells field for field.
//
// And once more when the injected-stall fault class went: the plan no
// longer sets a stall and the device line drops the injected-stall column.
// Without the 150µs spikes every cell's clock, telemetry, span and results
// hash moves; which requests fail, and the device accounting, do not (the
// failure draw never depended on the stall draw). These values were
// recorded with this file run against the parent commit, which still had
// the stall class, so the deletion that follows must keep them exactly.
// It did, but for the recorder's JSON, which lost the
// device_injected_stall_ns counter (zero here once the plan set no
// stall): that moves both cells' telemetry hash and nothing else, and the
// parent with that row left out of its two exporters reproduces both
// cells field for field.
//
// And once more when reads stopped forcing demotions (DESIGN.md §16): a
// demand read promotes a remote extent only into free local capacity, as
// a prefetch read already did, so at the cap neither promotes and only
// writes run the demotion clock. That moves every field of the stack cell
// (its clock 46 522 032 → 44 314 296 ns; local fill writes 38 → 14
// commands) and nothing of the bare one.
//
// And once more when the demotion clock went (DESIGN.md §16): a write
// lands on whichever member holds its extent and neither pulls it local
// nor demotes, which moves every field of the stack cell (its clock
// 44 314 296 → 37 184 671 ns). The recorder lost the tier_demotions and
// tier_copyback_bytes counters, which moves the bare cell's telemetry
// hash and nothing else; the parent commit with those two rows left out
// of its exporters reproduces the bare cell field for field.
func TestGoldenWayDown(t *testing.T) {
	want := map[string]goldenCell{
		"bare/plugged": {
			now:       45245358,
			device:    "nvme0 r92/38932480 w4/2191360 busy29034645 inj40 plug97/92/5; nvme0 r92/38932480 w4/2191360 busy29034645 inj40 plug97/92/5; ",
			telemetry: "46bc1d9b11dfd683",
			spans:     "10713f019ccf6b6b",
			results:   "a2f524514a1311ab",
		},
		"stack/plugged": {
			now:       37184671,
			device:    "stack(nvme0.0+nvme0.1+nvmeof0) r187/38207488 w23/5337088 busy15118060 inj49 plug224/187/37; nvme0.0 r69/12120064 w10/2174976 busy10718785 inj12 plug91/69/22; nvme0.1 r49/8544256 w9/2359296 busy8436277 inj13 plug59/49/10; nvmeof0 r69/17543168 w4/802816 busy15118060 inj24 plug74/69/5; ",
			telemetry: "281add72669b657c",
			spans:     "dbbc2248feb944e4",
			results:   "ec5bed653e7795b6",
		},
	}
	for _, stacked := range []bool{false, true} {
		name := map[bool]string{false: "bare", true: "stack"}[stacked] + "/plugged"
		t.Run(name, func(t *testing.T) {
			got := runGoldenWayDown(t, stacked)
			t.Logf("actual: %#v", got)
			if got != want[name] {
				t.Errorf("golden mismatch\n got %#v\nwant %#v", got, want[name])
			}
		})
	}
}

// goldenCell is what one configuration's run is reduced to. device is every
// field of Stack.Stats() and MemberStats(); the rest are SHA-256 prefixes:
// telemetry over the recorder snapshot's JSON (counters, outcomes, origins,
// histograms, per-backend tables, the event trace), spans over every
// operation's span tree, results over every call's return values.
type goldenCell struct {
	now       int64
	device    string
	telemetry string
	spans     string
	results   string
}

// goldenRun carries one configuration's kernel, clock and running hashes.
type goldenRun struct {
	tl      *simtime.Timeline
	tr      *telemetry.Tracer
	spans   hash.Hash
	results hash.Hash
}

// op runs one traced operation and folds its span tree into the span hash.
func (g *goldenRun) op(kind telemetry.Op, ino int64, fn func()) {
	root := g.tr.Root(g.tl, kind, ino)
	fn()
	root.Finish(g.tl)
	hashSpan(g.spans, root)
}

func hashSpan(h hash.Hash, s *telemetry.Span) {
	if s == nil {
		return
	}
	fmt.Fprintf(h, "(%s %d %d %d %v", s.Name(), s.Cat(), s.StartTime(), s.EndTime(), s.Attrs())
	for _, c := range s.Children() {
		hashSpan(h, c)
	}
	fmt.Fprint(h, ")")
}

// result folds one call's outcome into the results hash.
func (g *goldenRun) result(what string, vals ...any) {
	fmt.Fprintf(g.results, "%s %v @%d\n", what, vals, g.tl.Now())
}

// deviceLine prints every Stats field (Stats.String drops most of them).
func deviceLine(all []blockdev.Stats) string {
	var b bytes.Buffer
	for _, s := range all {
		fmt.Fprintf(&b, "%s r%d/%d w%d/%d busy%d inj%d plug%d/%d/%d; ", s.Name,
			s.ReadOps, s.ReadBytes, s.WriteOps, s.WriteBytes, int64(s.Busy),
			s.InjectedFaults, s.PlugSegments, s.PlugCommands, s.MergedSegments)
	}
	return b.String()
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

func runGoldenWayDown(t *testing.T, stacked bool) goldenCell {
	const mb = 1 << 20
	costs := simtime.DefaultCosts()
	var st *blockdev.Stack
	if stacked {
		st = blockdev.NewStack(blockdev.StackConfig{
			Local: blockdev.NVMeConfig(),
			Width: 2,
			Tier: blockdev.TierConfig{
				Enabled:           true,
				RemoteFrac:        0.5,
				LocalCapBytes:     3 << 20,
				CrossTierPrefetch: true,
			},
		})
	} else {
		st = blockdev.NewStack(blockdev.StackConfig{})
	}
	cfg := DefaultConfig()
	cfg.AllowLimitOverride = true
	// A tight congestion limit (≈ 2.8MB of queued transfer), queue depth
	// and merge window, so congestion postponement, depth gating and the
	// window bound all fire within a 14MB file.
	cfg.CongestionLimit = 2 * simtime.Millisecond
	cfg.Sched = blockdev.PlugConfig{QueueDepth: 2, MergeWindowBytes: 4 << 20}
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: 2048, Costs: costs}, nil)
	v := NewStack(cfg, fsys, st, cache)
	rec := telemetry.NewRecorder(1 << 14)
	st.SetTelemetry(rec)
	cache.SetTelemetry(rec)
	v.SetTelemetry(rec)

	g := &goldenRun{
		tl:      simtime.NewTimeline(0),
		tr:      telemetry.NewTracer(telemetry.TraceConfig{MaxSpansPerRoot: 4096}),
		spans:   sha256.New(),
		results: sha256.New(),
	}
	tl := g.tl

	// The file: extent A = [0, 3MB), hole [3, 4MB), extent B = [4, 10MB),
	// hole [10, 12MB), extent C = [12, 14MB); one-block spacer files keep
	// the extents physically apart. Written below the cache, so every
	// block starts cold.
	ino, err := fsys.Create(tl, "golden")
	if err != nil {
		t.Fatal(err)
	}
	fill := func(off, n int64, b byte) { ino.WriteAt(bytes.Repeat([]byte{b}, int(n)), off) }
	spacer := func(name string) {
		sp, err := fsys.Create(tl, name)
		if err != nil {
			t.Fatal(err)
		}
		sp.WriteAt([]byte{1}, 0)
	}
	fill(0, 3*mb, 'a')
	spacer("s1")
	fill(4*mb, 6*mb, 'b')
	spacer("s2")
	fill(12*mb, 2*mb, 'c')
	if got := len(ino.MapRange(0, ino.Blocks())); got != 3 {
		t.Fatalf("file has %d extents, want 3", got)
	}

	// Faults: seeded per-site glitches (mostly transient, clearing after
	// two attempts) everywhere, a transient bad region that
	// takes three attempts (transient sites clear for good, so a second
	// one is left for the rings to find), a persistent bad region for reads
	// and two for writes. A range fails every request it overlaps. The same
	// plan applies to every member of the stack at member offsets, so the
	// regions land on different file blocks per cell.
	st.SetFaultInjector(faultinject.New(faultinject.Plan{
		Seed:          14,
		ReadFailProb:  0.06,
		WriteFailProb: 0.05,
		TransientFrac: 0.8,
		Ranges: []faultinject.RangeFault{
			{Lo: 1 * mb, Hi: 1*mb + 128<<10, Class: faultinject.Transient, Reads: true, Writes: true, Repeats: 3},
			{Lo: 1*mb + 532<<10, Hi: 1*mb + 536<<10, Class: faultinject.Transient, Reads: true},
			{Lo: 2*mb + 512<<10, Hi: 2*mb + 576<<10, Class: faultinject.Persistent, Reads: true},
			{Lo: 4*mb + 768<<10, Hi: 4*mb + 800<<10, Class: faultinject.Persistent, Writes: true},
			{Lo: 9*mb + 512<<10, Hi: 9*mb + 576<<10, Class: faultinject.Persistent, Writes: true},
		},
	}))

	f, err := v.Open(tl, "golden")
	if err != nil {
		t.Fatal(err)
	}
	id := ino.ID()
	buf := make([]byte, 4*mb)
	read := func(off, n int64) {
		g.op(telemetry.OpRead, id, func() {
			got, err := f.ReadAt(tl, buf[:n], off)
			g.result("read", off, n, got, err != nil)
		})
	}
	write := func(off, n int64) {
		g.op(telemetry.OpWrite, id, func() {
			got, err := f.WriteAt(tl, bytes.Repeat([]byte{'w'}, int(n)), off)
			g.result("write", off, n, got, err != nil)
		})
	}
	fsync := func() {
		g.op(telemetry.OpFsync, id, func() { g.result("fsync", f.Fsync(tl) != nil) })
	}
	rainfo := func(req CacheInfoRequest) {
		g.op(telemetry.OpBgPrefetch, id, func() {
			var w bitmap.Window
			info := f.ReadaheadInfo(tl, req, &w)
			g.result("readahead_info", info.RequestedPages, info.PrefetchedPages,
				info.AlreadyCached, info.FileCachedPages, info.Hits, info.Misses, info.FreePages,
				info.PrefetchErr != nil, w.Lo(), w.Hi(), w.Count())
		})
	}
	// ring submits one batch; wait makes the caller reap (advance to) every
	// completion, as a ring's reaper would.
	ring := func(tenant int, wait bool, sqes ...RingSQE) {
		g.op(telemetry.OpRead, id, func() {
			for i := range sqes {
				sqes[i].F = f
				sqes[i].User = uint64(i)
			}
			for _, c := range v.RingEnter(tl, tenant, sqes, nil) {
				g.result("cqe", tenant, c.User, c.N, c.Err, c.Done)
				if wait && c.Done > tl.Now() {
					tl.WaitUntil(c.Done, simtime.WaitIO)
				}
			}
		})
	}
	dropCache := func() { f.Fadvise(tl, AdvDontNeed, 0, 0) }

	// First, while tier residency is still the initial placement: on the
	// stack, a ring prefetch and a ring read that each split across members
	// with exactly one member's piece starting in the persistent bad region
	// — partially dispatched requests, whose issued pieces still count.
	ring(3, true,
		RingSQE{Op: RingPrefetch, Off: 2*mb + 512<<10, Len: 512 << 10},
		RingSQE{Op: RingRead, Off: 6 * mb, Buf: buf[:1*mb]},
	)
	dropCache()

	// Sync reads: a sequential scan across extent A, the first hole and
	// into B (demand fetch, readahead ramp, marker hits, in-flight waits),
	// one request larger than the 2MB VFS chunk, one wholly inside a hole,
	// one past EOF.
	for off := int64(0); off < 5*mb; off += 192 << 10 {
		read(off, 192<<10)
	}
	read(6*mb, 3*mb)
	read(10*mb+64<<10, 256<<10)
	read(15*mb, 4096)

	// Buffered writes with read-modify-write edges over cold data, an
	// aligned overwrite, an append past EOF; then fsync. The 3MB write
	// right behind a 4MB prefetch meets the dirty throttle.
	write(12*mb+100, 10_000)
	write(13*mb, 64<<10)
	write(14*mb-50, 8292)
	fsync()
	dropCache()
	write(2*mb+512<<10+10, 100) // RMW edge in the bad region: the write fails
	rainfo(CacheInfoRequest{Offset: 4 * mb, Bytes: 4 * mb, LimitOverride: 1024})
	write(100, 3*mb-200)
	fsync()
	write(12*mb, 2*mb)
	fsync()
	fsync()

	// The prefetch calls, cold: readahead(2) over a partly cached range,
	// readahead_info twice back to back (the second meets the first's
	// backlog), once clamped to its override across the first hole, once
	// export-only, and a coverage prefetch.
	dropCache()
	read(560<<10, 8<<10)
	for _, off := range []int64{512 << 10, 2*mb + 512<<10} {
		g.op(telemetry.OpBgPrefetch, id, func() {
			g.result("readahead", f.Readahead(tl, off, 4*mb))
		})
	}
	rainfo(CacheInfoRequest{Offset: 4 * mb, Bytes: 5 * mb, LimitOverride: 2048})
	rainfo(CacheInfoRequest{Offset: 9 * mb, Bytes: 5 * mb, LimitOverride: 2048})
	rainfo(CacheInfoRequest{Offset: 1 * mb, Bytes: 3 * mb, LimitOverride: 512})
	rainfo(CacheInfoRequest{BitmapHi: 14 * mb / 4096})
	rainfo(CacheInfoRequest{Offset: 13 * mb, Bytes: 2 * mb, Coverage: true})
	read(4*mb, 1*mb)
	read(12*mb, 1*mb)

	// mmap: fault-around and fault-path readahead over a partly cached
	// range, a load into the persistent bad region, then MADV_RANDOM's
	// page-at-a-time faults.
	dropCache()
	read(768<<10, 16<<10)
	m := v.Mmap(tl, f)
	load := func(off, n int64) {
		g.op(telemetry.OpMmapLoad, id, func() {
			g.result("load", off, n, m.Load(tl, off, n, buf[:n]) != nil, m.Faults())
		})
	}
	for off := int64(512 << 10); off < 2*mb; off += 96 << 10 {
		load(off, 96<<10)
	}
	load(2*mb+512<<10, 8192)
	load(2*mb+448<<10, 256<<10)
	load(5*mb, 1*mb)
	load(14*mb-16<<10, 16<<10)
	dropCache()
	m.Madvise(tl, AdvRandom)
	load(7*mb+8192, 40<<10)
	load(3*mb-8192, 32<<10)
	load(2*mb+500<<10, 64<<10)

	// Rings: two tenants; reads over cold, warm, hole and bad blocks,
	// prefetch intents (larger than a VFS chunk, with an expired deadline,
	// into a backlogged device), a read of what was just prefetched.
	dropCache()
	ring(1, true,
		RingSQE{Op: RingRead, Off: 0, Buf: buf[:128<<10]},
		RingSQE{Op: RingPrefetch, Off: 4 * mb, Len: 3 * mb},
		RingSQE{Op: RingRead, Off: 2*mb + 256<<10, Buf: buf[1*mb : 2*mb]},
		RingSQE{Op: RingNop},
		RingSQE{Op: RingRead, Off: 15 * mb, Buf: buf[:4096]},
	)
	ring(2, false,
		RingSQE{Op: RingRead, Off: 7 * mb, Buf: buf[:64<<10]},
		RingSQE{Op: RingRead, Off: 4*mb + 64<<10, Buf: buf[:256<<10]},
		RingSQE{Op: RingPrefetch, Off: 12 * mb, Len: 1 * mb, Deadline: 1},
		RingSQE{Op: RingPrefetch, Off: 4 * mb, Len: 10 * mb},
		RingSQE{Op: RingRead, Off: 1*mb + 532<<10, Buf: buf[:192<<10]},
		RingSQE{Op: RingRead, Off: 3*mb - 64<<10, Buf: buf[:1*mb+128<<10]},
		RingSQE{Op: RingRead, Off: 7*mb + 512<<10, Buf: buf[:64<<10]},
	)
	ring(1, true,
		RingSQE{Op: RingPrefetch, Off: 0, Len: 3 * mb},
		RingSQE{Op: RingRead, Off: 9*mb + 512<<10, Buf: buf[:2*mb]},
		RingSQE{Op: RingRead, Off: 2*mb + 896<<10, Buf: buf[:256<<10]},
	)
	dropCache()
	ring(2, true,
		RingSQE{Op: RingRead, Off: 2*mb + 512<<10, Buf: buf[:64<<10]},
		RingSQE{Op: RingPrefetch, Off: 2*mb + 528<<10, Len: 128 << 10},
		RingSQE{Op: RingRead, Off: 5 * mb, Buf: buf[:2*mb]},
	)

	// A last scan under memory pressure (the file is 14MB, the cache 8MB)
	// with one more megabyte still dirty: eviction writes it back.
	write(5*mb, 1*mb)
	for off := int64(0); off < 14*mb; off += 1 * mb {
		read(off, 1*mb)
	}
	fsync()
	f.Close(tl)

	th := sha256.New()
	if err := rec.Snapshot().WriteJSON(th); err != nil {
		t.Fatal(err)
	}
	return goldenCell{
		now:       int64(tl.Now()),
		device:    deviceLine(append([]blockdev.Stats{st.Stats()}, st.MemberStats()...)),
		telemetry: sum(th),
		spans:     sum(g.spans),
		results:   sum(g.results),
	}
}
