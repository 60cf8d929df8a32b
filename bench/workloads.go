package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/crosslib"
	"repro/internal/fs"
	"repro/internal/lsm"
	"repro/internal/simtime"
)

// env is what a workload is built from: the seed its inputs derive from,
// whether the cross-layer telemetry is on, and the data scale.
type env struct {
	seed     int64
	traced   bool
	tiny     bool // -scale tiny: datasets 1/128, for the smoke test
	approach crossprefetch.Approach
	// keepRoots sizes the stack's own flight recorder so that no sampled
	// root is dropped over the ops this system will run.
	keepRoots int
}

// size scales a byte count for the run's scale, keeping 64KB alignment.
func (e *env) size(b int64) int64 {
	if e.tiny {
		b /= 128
	}
	return b &^ (64<<10 - 1)
}

func (e *env) count(n int) int {
	if e.tiny {
		n /= 128
	}
	return n
}

// config is the stack every workload runs: the paper's full system with
// block plugging, 4KB pages, and — traced — every observability plane on.
func (e *env) config(mem int64) crossprefetch.Config {
	cfg := crossprefetch.Config{
		Approach:    e.approach,
		MemoryBytes: mem,
		BlockSize:   4096,
		Plug:        true,
	}
	if e.traced {
		cfg.Telemetry = true
		cfg.Scorecard = true
		cfg.Trace = true
		cfg.TraceSampleEvery = 16
		cfg.TraceKeepPerOp = e.keepRoots
	}
	return cfg
}

// phase is what one run of ops did to the measured timelines.
type phase struct {
	start, end simtime.Time
	acct       simtime.Stats // summed over the timelines that ran ops
}

func (p phase) makespan() simtime.Duration { return p.end.Sub(p.start) }

// instance is one set-up workload: a live system and the op stream over
// it. run executes the stream's next n ops, one log per simulated thread.
type instance struct {
	sys     *crossprefetch.System
	db      *lsm.DB          // LSM workloads only
	rings   []*crosslib.Ring // serve_rings only
	liveKB  int64            // LSM: live user KB, for space amplification
	threads int
	run     func(n int, logs []*opLog) (phase, error)
}

// workload is one named benchmark cell.
type workload struct {
	name string
	why  string
	// ops is the op count of one measured phase at the default -seconds,
	// tuned once, at the commit that defined the benchmark, to about two
	// host seconds on the 2-core reference machine (four for lsm_mixed_rw,
	// which needs them to see enough flushes and compactions). It scales
	// with -seconds and with nothing else, so the op count — and with it
	// every virtual number — is fixed by the arguments, not by how fast
	// the host happens to be.
	ops     int
	threads int
	// reference marks the workloads replayed on an OSOnly system for
	// crosslib.virt_speedup_vs_osonly.
	reference bool
	build     func(e *env) (*instance, error)
}

var workloads = []workload{
	{
		name: "seq_cold_scan",
		why:  "4x512MB streamed through a cache 8x smaller: device-bound, so readahead depth, prefetch timeliness and plug merging set throughput; page insert/evict sets host cost",
		ops:  80000, threads: 1, reference: true, build: buildSeqColdScan,
	},
	{
		name: "warm_point_read",
		why:  "random 16KB reads of 256MB resident in a 1GB cache: device, plug, readahead and reclaim idle, so the per-call cost of crosslib, vfs and pagecache lookup is the whole run",
		ops:  240000, threads: 1, build: buildWarmPointRead,
	},
	{
		name: "lsm_zipf_get",
		why:  "zipfian Gets on a 200MB LSM over a 32MB cache: hit rate is set by eviction and the predictor arms, misses are latency-bound 16KB reads, bloom and index work shows on the host clock",
		ops:  100000, threads: 1, reference: true, build: func(e *env) (*instance, error) { return buildLSM(e, false) },
	},
	{
		name: "lsm_mixed_rw",
		why:  "same LSM, zipfian Gets alternate with Puts that walk the keys unskewed (skewed Puts hit a stale-Get bug): WAL, flush and compaction traffic pollutes the cache, so a read gain that costs writes shows",
		ops:  80000, threads: 1, build: func(e *env) (*instance, error) { return buildLSM(e, true) },
	},
	{
		name: "serve_rings",
		why:  "open loop at 70% of saturation: 8 tenants submit 16KB reads through rings on a fixed schedule, so ring batching, DRR lanes and crossings per op show in p99 before throughput",
		ops:  100000, threads: 1, build: buildServeRings,
	},
	{
		name: "shared_scan_2t",
		why:  "two gated threads stream halves of one shared 512MB file: range tree, lock-free bitmap and tree-lock ledger under real host parallelism, so lock contention and GOMAXPROCS scaling show",
		ops:  140000, threads: 2, build: buildSharedScan,
	},
	{
		name: "tier_stripe_scan",
		why:  "width-2 stripe over a half-remote capped tier, sequential and zipfian passes alternating: the only cell with piece math, per-member plugs, promotion, demotion and RTT-scaled readahead",
		ops:  120000, threads: 1, build: buildTierStripeScan,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- file-read plumbing shared by the five file workloads ----

// fileSet is the open descriptors of a workload with their ground truth.
type fileSet struct {
	files []*crosslib.File
	truth []*fs.Inode
}

// createFiles provisions n synthetic files of the given size and opens
// one descriptor on each.
func createFiles(sys *crossprefetch.System, tl *simtime.Timeline, prefix string, n int, size int64) (*fileSet, error) {
	set := &fileSet{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-%02d", prefix, i)
		if err := sys.CreateSynthetic(tl, name, size); err != nil {
			return nil, err
		}
		if err := set.open(sys, tl, name); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func (s *fileSet) open(sys *crossprefetch.System, tl *simtime.Timeline, name string) error {
	f, err := sys.Open(tl, name)
	if err != nil {
		return err
	}
	ino, err := sys.FS().Open(name)
	if err != nil {
		return err
	}
	s.files = append(s.files, f)
	s.truth = append(s.truth, ino)
	return nil
}

// reader issues verified ReadAt ops for one simulated thread.
type reader struct {
	set       *fileSet
	buf, want []byte
}

func newReader(set *fileSet, maxIO int64) *reader {
	return &reader{set: set, buf: make([]byte, maxIO), want: make([]byte, maxIO)}
}

// read performs one op: a ReadAt through CROSS-LIB, checked for length
// and — on the verified sample — for content against the file system.
func (r *reader) read(tl *simtime.Timeline, l *opLog, fi int, off, size int64) {
	op := l.enter(tl)
	c := l.enter(tl)
	n, err := r.set.files[fi].ReadAt(tl, r.buf[:size], off)
	l.leave(c, tl, callReadAt)
	ok := err == nil && int64(n) == size
	if ok && l.shouldVerify() {
		r.set.truth[fi].ReadAt(r.want[:size], off)
		ok = bytes.Equal(r.buf[:size], r.want[:size])
	}
	l.note(r.set.truth[fi].ID(), off/4096, (off+size+4095)/4096)
	l.finish(op, tl, opRead, size, ok)
}

// stream is a wrapping sequential cursor over one region of one file,
// entered at a seeded slot so that seeds differ in where the wraps fall.
type stream struct {
	file        int
	base, slots int64 // region start (bytes) and length in io-sized slots
	io          int64
	pos         int64
}

func newStream(rng *rand.Rand, file int, base, length, io int64) *stream {
	s := &stream{file: file, base: base, slots: length / io, io: io}
	s.pos = rng.Int63n(s.slots)
	return s
}

func (s *stream) next() int64 {
	off := s.base + s.pos*s.io
	s.pos = (s.pos + 1) % s.slots
	return off
}

// single wraps a one-timeline op loop as an instance.run.
func single(tl *simtime.Timeline, step func(l *opLog)) func(int, []*opLog) (phase, error) {
	return func(n int, logs []*opLog) (phase, error) {
		p := phase{start: tl.Now()}
		a0 := tl.Stats()
		for i := 0; i < n; i++ {
			step(logs[0])
		}
		p.end = tl.Now()
		p.acct = statsDelta(tl.Stats(), a0)
		return p, nil
	}
}

func statsDelta(a, b simtime.Stats) simtime.Stats {
	return simtime.Stats{Elapsed: a.Elapsed - b.Elapsed, CPU: a.CPU - b.CPU,
		IOWait: a.IOWait - b.IOWait, LockWait: a.LockWait - b.LockWait}
}

// scrambledZipf draws zipfian(1.1) ranks and scatters them over [0, n)
// by hashing the rank with a seeded salt (YCSB's scrambled zipfian), so
// the hot items differ from seed to seed but are always spread evenly
// over the key space: how many blocks the hot set touches — and with it
// the hit rate — is a property of the workload, not of the seed.
type scrambledZipf struct {
	z    *rand.Zipf
	n    uint64
	salt uint64
}

func newScrambledZipf(rng *rand.Rand, n int64) *scrambledZipf {
	return &scrambledZipf{
		z:    rand.NewZipf(rng, 1.1, 1, uint64(n-1)),
		n:    uint64(n),
		salt: rng.Uint64(),
	}
}

// next hashes the drawn rank with the splitmix64 finalizer.
func (s *scrambledZipf) next() int64 {
	x := s.z.Uint64() + s.salt
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return int64((x ^ x>>31) % s.n)
}

// ---- seq_cold_scan ----

func buildSeqColdScan(e *env) (*instance, error) {
	const nfiles, io = 4, 64 << 10
	fileBytes := e.size(512 << 20)
	sys := crossprefetch.NewSystem(e.config(nfiles * fileBytes / 8))
	tl := sys.Timeline()
	set, err := createFiles(sys, tl, "scan", nfiles, fileBytes)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	streams := make([]*stream, nfiles)
	for i, fi := range rng.Perm(nfiles) {
		streams[i] = newStream(rng, fi, 0, fileBytes, io)
	}
	rd := newReader(set, io)
	var cur int
	var done int64
	step := func(l *opLog) {
		s := streams[cur]
		rd.read(tl, l, s.file, s.next(), io)
		if done++; done == s.slots { // one full pass: on to the next file
			done, cur = 0, (cur+1)%nfiles
		}
	}
	return &instance{sys: sys, threads: 1, run: single(tl, step)}, nil
}

// ---- warm_point_read ----

func buildWarmPointRead(e *env) (*instance, error) {
	const nfiles, io = 8, 16 << 10
	fileBytes := e.size(32 << 20)
	sys := crossprefetch.NewSystem(e.config(4 * nfiles * fileBytes))
	tl := sys.Timeline()
	set, err := createFiles(sys, tl, "warm", nfiles, fileBytes)
	if err != nil {
		return nil, err
	}
	// Warm the cache: one sequential pass makes every page resident.
	warm := make([]byte, 64<<10)
	for _, f := range set.files {
		for off := int64(0); off < fileBytes; off += int64(len(warm)) {
			if _, err := f.ReadAt(tl, warm, off); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	rd := newReader(set, io)
	// Sector-granular offsets: a record rarely starts on a page boundary.
	sectors := (fileBytes - io) / 512
	step := func(l *opLog) {
		rd.read(tl, l, rng.Intn(nfiles), rng.Int63n(sectors)*512, io)
	}
	return &instance{sys: sys, threads: 1, run: single(tl, step)}, nil
}

// ---- lsm_zipf_get and lsm_mixed_rw ----

const lsmValueBytes = 1024

// lsmValue fills dst with the value of (key, version): the ground truth
// the generator keeps a per-key version table for.
func lsmValue(dst []byte, key int64, version uint32) {
	x := uint64(key)*0x9E3779B97F4A7C15 ^ uint64(version)*0xD1B54A32D192ED03 ^ 0x2545F4914F6CDD1D
	for i := 0; i+8 <= len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

func buildLSM(e *env, mixed bool) (*instance, error) {
	numKeys := int64(e.count(200_000))
	// The CrossPredictOpt preset plus PR 9's arm ensemble: the cell whose
	// hit rate the predictor arms are meant to decide.
	opts := e.approach.Options()
	opts.Ensemble = e.approach.UsesLib()
	cfg := e.config(e.size(32 << 20))
	cfg.LibOptions = &opts
	sys := crossprefetch.NewSystem(cfg)
	tl := sys.Timeline()
	// Flush policy, the same on both sides of any comparison: WAL not
	// synced, 4MB memtable, background compaction on.
	db, err := lsm.Open(tl, lsm.Options{Sys: sys, MemtableBytes: e.size(4 << 20)})
	if err != nil {
		return nil, err
	}
	keys := make([]string, numKeys)
	versions := make([]uint32, numKeys)
	val := make([]byte, lsmValueBytes)
	for i := range keys {
		keys[i] = lsm.BenchKey(int64(i))
		lsmValue(val, int64(i), 0)
		if err := db.Put(tl, keys[i], val); err != nil {
			return nil, err
		}
	}
	if err := db.Flush(tl); err != nil {
		return nil, err
	}
	db.WaitIdle(tl)
	sys.DropAllCaches(tl)

	rng := rand.New(rand.NewSource(e.seed))
	zipf := newScrambledZipf(rng, numKeys)
	// Puts walk the whole key space with a seeded stride coprime to it,
	// so no key is written twice within one memtable. They cannot follow
	// the Gets' skew: when several versions of a key straddle a block
	// boundary of a flushed table, sstable.blockFor returns the block
	// holding the older ones and Get answers stale (found writing this
	// benchmark, which may not change program code — see README.md).
	stride := numKeys/4 + rng.Int63n(numKeys/2)
	for gcd(stride, numKeys) != 1 {
		stride++
	}
	putKey := rng.Int63n(numKeys)
	var firstErr error
	var i int
	step := func(l *opLog) {
		// Puts and Gets alternate strictly, so memtable flushes — and the
		// compactions they trigger — fall on the same ops for every seed.
		put := mixed && i%2 == 0
		i++
		k := zipf.next()
		if put {
			putKey = (putKey + stride) % numKeys
			k = putKey
		}
		// A key's place in the sorted key space stands in for the blocks
		// an op touches; the store hides the real ones.
		l.note(0, k*lsmValueBytes/4096, k*lsmValueBytes/4096+4)
		op := l.enter(tl)
		if put {
			versions[k]++
			lsmValue(val, k, versions[k])
			c := l.enter(tl)
			err := db.Put(tl, keys[k], val)
			l.leave(c, tl, callPut)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			l.finish(op, tl, opPut, lsmValueBytes, err == nil)
			return
		}
		c := l.enter(tl)
		got, found, err := db.Get(tl, keys[k])
		l.leave(c, tl, callGet)
		ok := err == nil && found && len(got) == lsmValueBytes
		if ok && l.shouldVerify() {
			lsmValue(val, k, versions[k])
			ok = bytes.Equal(got, val)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		l.finish(op, tl, opGet, lsmValueBytes, ok)
	}
	run := single(tl, step)
	return &instance{
		sys: sys, db: db, threads: 1,
		liveKB: numKeys * (lsmValueBytes + int64(len(keys[0]))) / 1024,
		run: func(n int, logs []*opLog) (phase, error) {
			p, _ := run(n, logs)
			return p, firstErr
		},
	}, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ---- serve_rings ----

// serveRateOpsPerSec is the aggregate offered rate, in ops per virtual
// second: 70% of the rate at which this mix (8 tenants, 16KB uniform
// reads, cache = half the data) saturated at the commit that defined the
// benchmark. README.md records the sweep it was read from.
const serveRateOpsPerSec = 165_000

func buildServeRings(e *env) (*instance, error) {
	const tenants, io, maxBatch = 8, 16 << 10, 8
	fileBytes := e.size(64 << 20)
	sys := crossprefetch.NewSystem(e.config(tenants * fileBytes / 2))
	setup := sys.Timeline()
	set, err := createFiles(sys, setup, "serve", tenants, fileBytes)
	if err != nil {
		return nil, err
	}
	gap := simtime.Duration(tenants * int64(simtime.Second) / serveRateOpsPerSec)

	type slot struct {
		due simtime.Time
		off int64
		buf []byte
	}
	type tenant struct {
		ring    *crosslib.Ring
		nextDue simtime.Time
		slots   [maxBatch]slot
	}
	rng := rand.New(rand.NewSource(e.seed))
	gen, reap := sys.Timeline(), sys.Timeline()
	ts := make([]*tenant, tenants)
	inst := &instance{sys: sys, threads: 1}
	for t := range ts {
		ts[t] = &tenant{
			ring: sys.Lib().NewRing(t, 2*maxBatch),
			// Stagger the tenants' schedules across one gap.
			nextDue: simtime.Time(int64(gap) * int64(t) / tenants),
		}
		for k := range ts[t].slots {
			ts[t].slots[k].buf = make([]byte, io)
		}
		inst.rings = append(inst.rings, ts[t].ring)
	}
	want := make([]byte, io)
	sectors := (fileBytes - io) / 512

	type completion struct {
		lat simtime.Duration
		ok  bool
	}
	var comps []completion
	inst.run = func(n int, logs []*opLog) (phase, error) {
		l := logs[0]
		p := phase{start: gen.Now()}
		g0, r0 := gen.Stats(), reap.Stats()
		for issued := 0; issued < n; {
			// Sleep until the next arrival if none is due yet. The only
			// non-CPU wait kinds are I/O and lock, so an idle generator
			// books as I/O wait.
			first := ts[0].nextDue
			for _, t := range ts[1:] {
				if t.nextDue < first {
					first = t.nextDue
				}
			}
			gen.WaitUntil(first, simtime.WaitIO)

			step := l.enter(gen)
			comps = comps[:0]
			for ti, t := range ts {
				staged := 0
				b := l.enter(gen)
				for staged < maxBatch && issued < n && t.nextDue <= gen.Now() {
					s := &t.slots[staged]
					s.due, s.off = t.nextDue, rng.Int63n(sectors)*512
					l.note(set.truth[ti].ID(), s.off/4096, (s.off+io+4095)/4096)
					if l.traced {
						l.late = append(l.late, int64(gen.Now().Sub(s.due)))
					}
					c := l.enter(gen)
					err := t.ring.PrepRead(set.files[ti], s.buf, s.off, uint64(staged))
					l.leave(c, gen, callPrepRead)
					if err != nil {
						return p, fmt.Errorf("serve_rings: tenant %d prep: %w", ti, err)
					}
					t.nextDue = t.nextDue.Add(gap)
					staged++
					issued++
				}
				if staged == 0 {
					continue
				}
				c := l.enter(gen)
				t.ring.Submit(gen)
				l.leave(c, gen, callSubmit)
				c = l.enter(reap)
				cqes := t.ring.Reap(reap, 0)
				l.leave(c, reap, callReap)
				if l.traced {
					l.host[callRingBatch] = append(l.host[callRingBatch], int32(time.Since(b.host))/int32(staged))
				}
				if len(cqes) != staged {
					return p, fmt.Errorf("serve_rings: tenant %d reaped %d of %d", ti, len(cqes), staged)
				}
				for _, cq := range cqes {
					s := &t.slots[cq.User]
					ok := cq.Err == nil && cq.N == io
					if ok && (l.n+len(comps))%l.verifyEvery == 0 {
						set.truth[ti].ReadAt(want, s.off)
						ok = bytes.Equal(s.buf, want)
					}
					comps = append(comps, completion{cq.Done.Sub(s.due), ok})
				}
			}
			if l.sampled() {
				l.flushSpans(l.span(step, time.Now(), gen, "bench", "batch"))
			}
			for _, c := range comps {
				l.record(opRead, c.lat, io, c.ok)
			}
		}
		p.end = simtime.MaxTime(gen.Now(), reap.Now())
		p.acct = statsDelta(gen.Stats(), g0)
		p.acct.Merge(statsDelta(reap.Stats(), r0))
		return p, nil
	}
	return inst, nil
}

// ---- shared_scan_2t ----

func buildSharedScan(e *env) (*instance, error) {
	const threads, io = 2, 16 << 10
	fileBytes := e.size(512 << 20)
	sys := crossprefetch.NewSystem(e.config(fileBytes / 4))
	setup := sys.Timeline()
	if err := sys.CreateSynthetic(setup, "shared", fileBytes); err != nil {
		return nil, err
	}
	set := &fileSet{}
	rng := rand.New(rand.NewSource(e.seed))
	streams := make([]*stream, threads)
	readers := make([]*reader, threads)
	for t := 0; t < threads; t++ {
		// One descriptor per thread on the one inode.
		if err := set.open(sys, setup, "shared"); err != nil {
			return nil, err
		}
		half := fileBytes / threads
		streams[t] = newStream(rng, t, int64(t)*half, half, io)
		readers[t] = newReader(set, io)
	}
	var clock simtime.Time
	run := func(n int, logs []*opLog) (phase, error) {
		if len(logs) != threads {
			return phase{}, errors.New("shared_scan_2t: one log per thread")
		}
		g := simtime.NewGroup(clock)
		tls := make([]*simtime.Timeline, threads)
		for t := 0; t < threads; t++ {
			g.Go(func(id int, tl *simtime.Timeline) {
				tls[id] = tl
				for i := 0; i < n/threads; i++ {
					g.Gate(id, tl)
					readers[id].read(tl, logs[id], id, streams[id].next(), io)
				}
			})
		}
		g.Wait()
		p := phase{start: clock}
		for _, tl := range tls {
			p.end = simtime.MaxTime(p.end, tl.Now())
			p.acct.Merge(tl.Stats())
		}
		clock = p.end
		return p, nil
	}
	return &instance{sys: sys, threads: threads, run: run}, nil
}

// ---- tier_stripe_scan ----

func buildTierStripeScan(e *env) (*instance, error) {
	const nfiles, seqIO, zipfIO = 2, 64 << 10, 16 << 10
	// Each pass moves the same bytes: 1024 x 64KB, then 4096 x 16KB.
	seqPass, zipfPass := e.count(1024), e.count(4096)
	fileBytes := e.size(256 << 20)
	cfg := e.config(nfiles * fileBytes / 4)
	cfg.Stripe = 2
	// The remote tier of the PR 10 sweep: NVMe-oF over a congested fabric,
	// the regime where leaving data remote hurts.
	remote := blockdev.RemoteNVMeConfigRTT(200 * simtime.Microsecond)
	remote.ReadBandwidth = 400 << 20
	remote.WriteBandwidth = 300 << 20
	cfg.Tier = blockdev.TierConfig{
		Enabled:           true,
		Remote:            remote,
		RemoteFrac:        0.5,
		CrossTierPrefetch: true,
		LocalCapBytes:     nfiles * fileBytes / 2,
	}
	sys := crossprefetch.NewSystem(cfg)
	tl := sys.Timeline()
	set, err := createFiles(sys, tl, "tier", nfiles, fileBytes)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	streams := make([]*stream, nfiles)
	for i := range streams {
		streams[i] = newStream(rng, i, 0, fileBytes, seqIO)
	}
	slotsPerFile := fileBytes / zipfIO
	zipf := newScrambledZipf(rng, nfiles*slotsPerFile)
	rd := newReader(set, seqIO)
	var i int
	step := func(l *opLog) {
		if i%(seqPass+zipfPass) < seqPass {
			s := streams[i/(seqPass+zipfPass)%nfiles]
			rd.read(tl, l, s.file, s.next(), seqIO)
		} else {
			slot := zipf.next()
			rd.read(tl, l, int(slot/slotsPerFile), slot%slotsPerFile*zipfIO, zipfIO)
		}
		i++
	}
	return &instance{sys: sys, threads: 1, run: single(tl, step)}, nil
}
