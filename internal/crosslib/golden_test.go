package crosslib

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// TestGoldenWayUp pins virtual time, the library's counters and the
// telemetry record of every CROSS-LIB entry point — mmap loads with bitmap
// scans, the fincore poll, sequential / reverse / strided / random ReadAt on
// private and shared descriptors, Read/SeekTo, WriteAt/Append/Fsync, the
// optimistic open and FetchAll, ring read / prefetch / deadline prefetch
// with backpressure and a discarding Close, a transient and a
// persistent fault plan (retries, breaker trip, open-breaker drops on both
// paths, recovery), helper-saturation drops and the low watermark — on one
// seeded timeline per approach. internal/vfs's TestGoldenWayDown pins the
// kernel below the library; this pins the decisions above it.
//
// The expected values were recorded by running this file, unchanged,
// against the commit before the way up was collapsed (PR 15, 1dd50fd). The
// schedule steers clear of the three defects that collapse fixed, which
// have tests of their own: no kernel clamp under an OptLimits intent, no
// mmap scan under a persistent fault, and a ring write only where the
// ring's old copy of the write-side observe agreed with WriteAt's (with the
// ensemble on it trained the wrong detector, with Predict off it skipped
// the op tick). To re-record after an intended change, copy this file into
// a clone of the parent commit and run it there with -v: every cell logs
// its actual values.
//
// Re-recorded on purpose once since, in PR 20 (the budget loop, DESIGN.md
// §24): the evictor now wakes above the halt mark, which moves the two
// cells that evict (predict+opt, predict+opt+ensemble), and every cell's
// stats string gained DroppedLowMemory. With the evictor's mark set back to
// the halt mark that tree reproduced the PR 15 values in all four cells,
// field for field; blind and fetchall+opt still carry them.
//
// And once more in PR 22 (the cold drop, DESIGN.md §24 "which pages"): the
// evictor's fadvise spares the pages on the kernel's active list and asks an
// idle file once per InactiveAge, which moves the same two cells and no
// other (EvictedPages 7 842 → 7 594 and 7 994 → 7 746). With dontNeed
// issuing AdvDontNeed and the once-per-age gate off, that tree reproduces the
// PR 20 values in all four cells.
//
// And in PR 24, for two reasons that separate cleanly. (1) A range-tree node
// whose every block is believed cached answers NeedsPrefetch for one
// BitmapOp on its read side (DESIGN.md §20 "what a resident read costs"):
// that alone moves fetchall+opt and no other cell — its helpers' repair
// passes walk full nodes — and there only the telemetry and results hashes;
// now and stats stay. (2) A read marks cached the blocks it read, not the
// blocks its buffer could have held: the schedule's reads across EOF and
// its demand reads that fail under the persistent fault no longer charge a
// MarkCached (108 ns for four blocks) for blocks that never arrived, which
// takes 13 512 ns (predict+opt, with and without the ensemble) or 14 040 ns
// (blind, fetchall+opt) off every cell's now and moves both hashes with
// it. No stats or ring field moves in any cell. With File.markRead marking
// [lo, hi) of the buffer again, that tree reproduces the PR 22 values in the
// first three cells and (1)'s in the fourth.
//
// And once more for drop-behind (DESIGN.md §24): the two cells that evict drop
// behind the one stream over a file with a sole descriptor and more blocks
// than the budget ("b"; "a" has two descriptors), 14 units, which moves now,
// stats and both hashes there. The recorder gained a counter and an outcome,
// which moves every cell's telemetry hash and nothing else in blind and
// fetchall+opt. With File.dropBehind returning at once, that tree reproduces
// the previous now, stats, ring and results in all four cells.
//
// And once more when every kernel read came to unplug through a block plug
// (DESIGN.md §11, §18): the kernel below used to dispatch each chunk
// unplugged, one command at a time with vfs-level retry; now one flush per
// request merges adjacent chunks, gates them by queue depth and retries per
// command. That moves three cells — predict+opt, predict+opt+ensemble and
// fetchall+opt — in every field but ring, and not blind. Run against the
// parent commit, this file reproduces the previous values in all four
// cells.
//
// And once more when the ensemble lost its Leap arm (DESIGN.md §15): the
// predict+opt+ensemble cell now runs the counter and MITHRIL only, which
// moves every field there but ring (now 81 345 423 → 76 793 697,
// PrefetchCalls 2 355 → 920). The recorder's JSON lost the arm's row, which
// moves the telemetry hash of the other three cells and nothing else: with
// the "leap" row left out of the parent's export, the parent reproduces
// these three cells field for field.
//
// And once more when the recorder lost the brownout controller's two
// outcome rows: every cell's telemetry hash moves and nothing else; with
// those rows left out of the parent's export, the parent reproduces all
// four cells field for field.
//
// And once more when the library lost its blind mode, its helper-count
// setting and the ring's write SQE and read deadlines: the blind cell is
// gone, the pool has its four helpers (it had two here), and the ring
// schedule no longer submits the write or the expired read. That moves
// every field of the two predict+opt cells and all but now in
// fetchall+opt. The parent commit running this edited schedule, with its
// Workers at the default of four, reproduces all three cells field for
// field.
//
// And once more when the mmap scan period became a constant of 64 loads
// (it was set to 8 here): the mmap leg now loads 8KB at a time, 384
// sequential loads and 16 per scattered offset, so that it still runs
// eight scans. That moves now, both hashes and WorkerJobs in all three
// cells (863 → 855, 923 → 916, 28 → 20), and PrefetchCalls in the ensemble
// cell (920 → 921); ring holds. The parent commit running this edited schedule, with its MmapScanOps set to
// 64, reproduces all three cells field for field.
//
// And once more when the device lost its injected-stall class: the
// recorder's JSON lost the device_injected_stall_ns counter, always zero
// here, which moves every cell's telemetry hash and nothing else; with
// that row left out of the parent's two exporters, the parent reproduces
// all three cells field for field.
func TestGoldenWayUp(t *testing.T) {
	ensemble := CrossPredictOpt.Options()
	ensemble.Ensemble = true
	cells := []struct {
		name string
		opt  Options
		want goldenUp
	}{
		{"predict+opt", CrossPredictOpt.Options(), goldenUp{
			now:       74622539,
			stats:     "{PrefetchCalls:848 SavedPrefetches:938 PrefetchedPages:14612 EvictedPages:7322 FincorePolls:1 OpenPrefetches:3 DroppedPrefetch:64 DroppedLowMemory:396 WorkerJobs:855 PrefetchRetries:65 BreakerTrips:1 BreakerRecoveries:1 DroppedBreaker:127 BatchedIntents:0 VectoredFlushes:0 ArmPromotions:0}",
			ring:      "{Submits:4 SQEs:21 Backpressure:2 Discarded:1}",
			telemetry: "25013e480b1946b3",
			results:   "aabc860fc8b62f43",
		}},
		{"predict+opt+ensemble", ensemble, goldenUp{
			now:       75043111,
			stats:     "{PrefetchCalls:921 SavedPrefetches:724 PrefetchedPages:14816 EvictedPages:7338 FincorePolls:1 OpenPrefetches:3 DroppedPrefetch:64 DroppedLowMemory:516 WorkerJobs:916 PrefetchRetries:65 BreakerTrips:1 BreakerRecoveries:1 DroppedBreaker:127 BatchedIntents:0 VectoredFlushes:0 ArmPromotions:2}",
			ring:      "{Submits:4 SQEs:21 Backpressure:2 Discarded:1}",
			telemetry: "c2f173b6d5854789",
			results:   "284b483ed86f4021",
		}},
		{"fetchall+opt", CrossFetchAllOpt.Options(), goldenUp{
			now:       105202812,
			stats:     "{PrefetchCalls:128 SavedPrefetches:4 PrefetchedPages:14700 EvictedPages:0 FincorePolls:1 OpenPrefetches:0 DroppedPrefetch:0 DroppedLowMemory:0 WorkerJobs:20 PrefetchRetries:1 BreakerTrips:0 BreakerRecoveries:0 DroppedBreaker:0 BatchedIntents:0 VectoredFlushes:0 ArmPromotions:0}",
			ring:      "{Submits:5 SQEs:21 Backpressure:2 Discarded:1}",
			telemetry: "c66535d9f3656845",
			results:   "a7e654630d6f7d9b",
		}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			got := runGoldenWayUp(t, c.opt)
			t.Logf("actual: %#v", got)
			if got != c.want {
				t.Errorf("golden mismatch\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}

// goldenUp is what one approach's run is reduced to: the final virtual
// time, every field of Runtime.Stats() and of the ring's RingStats, and
// SHA-256 prefixes of the recorder snapshot's JSON (counters, outcomes,
// origins, arms, histograms, the event trace) and of every call's return
// values.
type goldenUp struct {
	now       int64
	stats     string
	ring      string
	telemetry string
	results   string
}

func runGoldenWayUp(t *testing.T, opt Options) goldenUp {
	const (
		kb = 1 << 10
		mb = 1 << 20
	)
	costs := simtime.DefaultCosts()
	st := blockdev.WrapDevice(blockdev.New(blockdev.NVMeConfig()))
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: 12288, Costs: costs}, nil)
	cfg := vfs.DefaultConfig()
	cfg.AllowLimitOverride = true
	v := vfs.NewStack(cfg, fsys, st, cache)

	// A small breaker so trips and recoveries all happen within a few
	// megabytes; frequent budget checks.
	opt.EvictCheckOps = 8
	opt.InactiveAge = 2 * simtime.Millisecond
	opt.BreakerThreshold = 3
	opt.BreakerCooloff = 2 * simtime.Millisecond
	opt.FaultSeed = 16
	rt := New(v, opt)
	rec := telemetry.NewRecorder(1 << 14)
	st.SetTelemetry(rec)
	cache.SetTelemetry(rec)
	v.SetTelemetry(rec)
	rt.SetTelemetry(rec)

	tl := simtime.NewTimeline(0)
	results := sha256.New()
	result := func(what string, vals ...any) {
		fmt.Fprintf(results, "%s %v @%d\n", what, vals, tl.Now())
	}
	for _, file := range []struct {
		name string
		size int64
	}{{"m", 8 * mb}, {"a", 64 * mb}, {"b", 64 * mb}, {"c", 4 * mb}} {
		if _, err := fsys.CreateSynthetic(tl, file.name, file.size); err != nil {
			t.Fatal(err)
		}
	}
	open := func(name string) *File {
		f, err := rt.Open(tl, name)
		if err != nil {
			t.Fatal(err)
		}
		result("open", name, f.Size())
		return f
	}
	buf := make([]byte, 1*mb)
	read := func(f *File, off, n int64) {
		got, err := f.ReadAt(tl, buf[:n], off)
		result("read", off, n, got, err != nil)
	}

	// mmap first, while the cache is empty: a sequential run of loads (six
	// scans, one per 64 loads, find a dense frontier and prefetch ahead of
	// it with a growing window), then scattered ones (two more scans); a
	// fincore poll.
	fm := open("m")
	m := rt.Mmap(tl, fm)
	for off := int64(0); off < 3*mb; off += 8 * kb {
		result("load", off, m.Load(tl, off, 8*kb, nil) != nil)
	}
	for _, off := range []int64{7 * mb, 5 * mb, 6*mb + 512*kb, 4*mb + 4096, 7*mb + 900*kb, 5*mb + 256*kb, 6 * mb, 4 * mb} {
		for i := int64(0); i < 16; i++ {
			result("load", off, m.Load(tl, off+i*4096, 4096, buf[:4096]) != nil)
		}
	}
	fm.FincorePollStep(tl, 1024)
	result("fincore")

	// ReadAt on two descriptors of one file (one shared tree, two pattern
	// detectors): sequential, reverse, strided, random; Read and SeekTo.
	f1, f2 := open("a"), open("a")
	for off := int64(0); off < 4*mb; off += 16 * kb {
		read(f1, off, 16*kb)
	}
	// Helper saturation: with every helper booked 5ms ahead, new intents
	// are dropped and give their requested bits back.
	for i := 0; i < helperWorkers; i++ {
		rt.workers.Run(tl.Now(), func(wtl *simtime.Timeline) { wtl.Advance(5 * simtime.Millisecond) })
	}
	for off := int64(40 * mb); off < 41*mb; off += 16 * kb {
		read(f2, off, 16*kb)
	}
	tl.WaitUntil(tl.Now().Add(6*simtime.Millisecond), simtime.WaitIO)

	for off := int64(12*mb - 16*kb); off >= 10*mb; off -= 16 * kb {
		read(f2, off, 16*kb)
	}
	for off := int64(16 * mb); off < 20*mb; off += 64 * kb {
		read(f1, off, 16*kb)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 64; i++ {
		read(f2, rng.Int63n(32*mb/4096)*4096, 16*kb)
	}
	f2.SeekTo(4 * mb)
	for i := 0; i < 16; i++ {
		got, err := f2.Read(tl, buf[:48*kb])
		result("seqread", got, err != nil)
	}
	read(f1, 64*mb-100, 4096) // short read at EOF
	read(f1, 65*mb, 4096)     // past EOF

	// Writes: a created file, unaligned overwrites, appends, fsync, a read
	// back of what was written.
	fw, err := rt.Create(tl, "w")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*kb)
	for i := range data {
		data[i] = byte(i)
	}
	write := func(off, n int64) {
		got, err := fw.WriteAt(tl, data[:n], off)
		result("write", off, n, got, err != nil)
	}
	write(0, 64*kb)
	write(100_000, 10_000)
	for i := 0; i < 4; i++ {
		got, err := fw.Append(tl, data[:32*kb])
		result("append", got, err != nil, fw.Size())
	}
	result("fsync", fw.Fsync(tl) != nil)
	write(8*kb+5, 300)
	read(fw, 0, 128*kb)

	// Rings: reads, a prefetch intent, the same intent again (the bitmap
	// elides it), deadline prefetches (expired: shed in the library; far
	// off: admitted), backpressure at depth 8, and a Close that discards a
	// staged op.
	fc := open("c")
	ring := rt.NewRing(1, 8)
	prep := func(what string, err error) { result("prep "+what, err != nil) }
	reap := func() {
		result("submit", ring.Submit(tl))
		for _, c := range ring.Reap(tl, 0) {
			result("cqe", c.User, c.N, c.Err, c.Done)
		}
	}
	prep("read", ring.PrepRead(fc, buf[:64*kb], 0, 1))
	prep("read", ring.PrepRead(fc, buf[64*kb:128*kb], 64*kb, 2))
	prep("read", ring.PrepRead(fc, buf[128*kb:192*kb], 1*mb, 3))
	prep("prefetch", ring.PrepPrefetch(fc, 2*mb, 512*kb, 4, 0))
	reap()
	prep("prefetch", ring.PrepPrefetch(fc, 2*mb, 512*kb, 5, 0))
	prep("prefetch", ring.PrepPrefetch(fc, 3*mb, 256*kb, 6, tl.Now().Add(-simtime.Microsecond)))
	prep("prefetch", ring.PrepPrefetch(fc, 3*mb, 256*kb, 7, tl.Now().Add(simtime.Second)))
	prep("prefetch", ring.PrepPrefetch(fc, 4*mb-8*kb, 64*kb, 8, 0)) // clamped at EOF
	prep("prefetch", ring.PrepPrefetch(fc, 5*mb, 64*kb, 9, 0))      // past EOF
	prep("read", ring.PrepRead(fc, buf[:64*kb], 2*mb, 11))
	reap()
	for i := int64(0); i < 10; i++ {
		prep("read", ring.PrepRead(fc, buf[i*16*kb:(i+1)*16*kb], 1*mb+i*16*kb, uint64(20+i)))
	}
	reap()

	// Faults on their own file. Transient: every site fails once, prefetch
	// and demand retries absorb it. Persistent: a ring prefetch fails
	// definitively (one breaker feed), a sequential scan trips the breaker
	// and later intents — predictor's and ring's — are dropped while it is
	// open. Cleared: past the cool-off a probe succeeds and prefetch resumes.
	st.SetFaultInjector(faultinject.New(faultinject.Plan{
		Seed:             16,
		TransientRepeats: 1,
		Ranges:           []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Transient, Reads: true}},
	}))
	fb := open("b")
	for off := int64(0); off < 2*mb; off += 16 * kb {
		read(fb, off, 16*kb)
	}
	st.SetFaultInjector(faultinject.New(faultinject.Plan{
		Seed:   16,
		Ranges: []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Persistent, Reads: true}},
	}))
	prep("prefetch", ring.PrepPrefetch(fb, 60*mb, 256*kb, 30, 0))
	reap()
	for off := int64(32 * mb); off < 34*mb; off += 16 * kb {
		read(fb, off, 16*kb)
	}
	prep("prefetch", ring.PrepPrefetch(fb, 61*mb, 256*kb, 31, 0))
	reap()
	st.SetFaultInjector(nil)
	tl.WaitUntil(tl.Now().Add(10*simtime.Millisecond), simtime.WaitIO)
	for off := int64(48 * mb); off < 50*mb; off += 16 * kb {
		read(fb, off, 16*kb)
	}

	// The rest of the file through a cache that is by now nearly full: the
	// low watermark halts prefetch and budget-driven eviction runs.
	for off := int64(21 * mb); off < 56*mb; off += 16 * kb {
		read(f1, off, 16*kb)
	}

	prep("read", ring.PrepRead(fc, buf[:4096], 0, 40))
	ring.Close()
	prep("read", ring.PrepRead(fc, buf[:4096], 0, 41))
	for _, f := range []*File{f1, f2, fm, fb, fc, fw} {
		result("close", f.Close(tl) != nil, rt.SharedFiles())
	}

	var js bytes.Buffer
	if err := rec.Snapshot().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	th := sha256.Sum256(js.Bytes())
	// What the schedule exercised, for whoever re-records: a decision that
	// reads zero here is a decision the golden does not pin.
	var snap struct {
		Outcomes map[string]struct{ Events, Pages int64 }
	}
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	t.Logf("outcomes: %v", snap.Outcomes)
	sum := func(b []byte) string { return hex.EncodeToString(b)[:16] }
	return goldenUp{
		now:       int64(tl.Now()),
		stats:     fmt.Sprintf("%+v", rt.Stats()),
		ring:      fmt.Sprintf("%+v", ring.Stats()),
		telemetry: sum(th[:]),
		results:   sum(results.Sum(nil)),
	}
}
