package lsm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	crossprefetch "repro"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func testSys(a crossprefetch.Approach) *crossprefetch.System {
	return crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: 256 << 20,
		Approach:    a,
	})
}

func testDB(t *testing.T, a crossprefetch.Approach) *DB {
	t.Helper()
	sys := testSys(a)
	db, err := Open(sys.Timeline(), Options{
		Sys:           sys,
		MemtableBytes: 64 << 10,
		BlockBytes:    4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPutGet(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	if err := db.Put(tl, "alpha", []byte("1")); err != nil {
		t.Fatal(err)
	}
	db.Put(tl, "beta", []byte("2"))
	v, ok, err := db.Get(tl, "alpha")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get alpha = %q %v %v", v, ok, err)
	}
	if _, ok, _ := db.Get(tl, "gamma"); ok {
		t.Fatal("missing key found")
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	db.Put(tl, "k", []byte("v1"))
	db.Put(tl, "k", []byte("v2"))
	v, ok, _ := db.Get(tl, "k")
	if !ok || string(v) != "v2" {
		t.Fatalf("overwrite lost: %q %v", v, ok)
	}
	db.Delete(tl, "k")
	if _, ok, _ := db.Get(tl, "k"); ok {
		t.Fatal("deleted key still visible")
	}
	// Deletion survives a flush.
	db.Flush(tl)
	if _, ok, _ := db.Get(tl, "k"); ok {
		t.Fatal("tombstone lost in flush")
	}
}

func TestFlushToSSTAndReadBack(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	for i := 0; i < 500; i++ {
		db.Put(tl, BenchKey(int64(i)), benchValue(int64(i), 100))
	}
	db.Flush(tl)
	tables := db.TotalTables()
	total := 0
	for _, n := range tables {
		total += n
	}
	if total == 0 {
		t.Fatal("flush produced no tables")
	}
	for i := 0; i < 500; i++ {
		v, ok, err := db.Get(tl, BenchKey(int64(i)))
		if err != nil || !ok {
			t.Fatalf("key %d lost after flush: %v %v", i, ok, err)
		}
		if !bytes.Equal(v, benchValue(int64(i), 100)) {
			t.Fatalf("key %d value corrupt", i)
		}
	}
}

func TestMemtableRolloverAndCompaction(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	const n = 5000
	for i := 0; i < n; i++ {
		db.Put(tl, BenchKey(int64(i%2000)), benchValue(int64(i), 200))
	}
	db.Flush(tl)
	db.WaitIdle(tl)
	if db.Stats().Flushes == 0 {
		t.Fatal("no flushes despite rollover-size writes")
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("no compactions despite many L0 tables")
	}
	// All live keys remain readable with their newest values (the last
	// write of key k was at index k+4000 for k<1000, else k+2000).
	for i := 0; i < 2000; i++ {
		last := int64(i + 2000)
		if i < 1000 {
			last = int64(i + 4000)
		}
		want := benchValue(last, 200)
		v, ok, err := db.Get(tl, BenchKey(int64(i)))
		if err != nil || !ok {
			t.Fatalf("key %d lost after compaction: %v %v", i, ok, err)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("key %d stale after compaction", i)
		}
	}
	// L0 should have been drained below trigger.
	if got := db.TotalTables()[0]; got >= l0CompactTrigger {
		t.Fatalf("L0 still holds %d tables", got)
	}
}

func TestIteratorForward(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	const n = 1000
	// Interleave memtable and flushed data.
	for i := 0; i < n; i += 2 {
		db.Put(tl, BenchKey(int64(i)), benchValue(int64(i), 50))
	}
	db.Flush(tl)
	for i := 1; i < n; i += 2 {
		db.Put(tl, BenchKey(int64(i)), benchValue(int64(i), 50))
	}
	it := db.NewIterator(tl, false)
	defer it.Close()
	if !it.SeekFirst() {
		t.Fatal("empty iterator")
	}
	count := 0
	prev := ""
	for ok := true; ok; ok = it.Next() {
		if it.Key() <= prev {
			t.Fatalf("keys out of order: %q after %q", it.Key(), prev)
		}
		prev = it.Key()
		count++
	}
	if count != n {
		t.Fatalf("iterated %d keys, want %d", count, n)
	}
}

// TestAppOnlyReadaheadTraced: APPonly's own readahead(2) on a forward
// scan goes through the library shim under a root span, so a
// full-sampling trace accounts every prefetch device page it reads and
// the audit reconciles.
func TestAppOnlyReadaheadTraced(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes:      256 << 20,
		Approach:         crossprefetch.AppOnly,
		Telemetry:        true,
		Trace:            true,
		TraceSampleEvery: 1,
	})
	tl := sys.Timeline()
	db, err := Open(tl, Options{Sys: sys, MemtableBytes: 256 << 10, BlockBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := int64(0); i < n; i++ {
		if err := db.Put(tl, BenchKey(i), benchValue(i, 200)); err != nil {
			t.Fatal(err)
		}
	}
	db.Flush(tl)
	sys.DropAllCaches(tl)
	it := db.NewIterator(tl, false)
	count := 0
	for ok := it.SeekFirst(); ok; ok = it.Next() {
		count++
	}
	it.Close()
	if count != n || it.Err() != nil {
		t.Fatalf("iterated %d of %d keys, err %v", count, n, it.Err())
	}
	if got := sys.Telemetry().CounterValue(telemetry.CtrVFSPrefetchDevicePages); got == 0 {
		t.Fatal("the scan's readahead read no device pages")
	}
	if err := sys.AuditTelemetry(); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorReverse(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	const n = 800
	for i := 0; i < n; i++ {
		db.Put(tl, BenchKey(int64(i)), benchValue(int64(i), 50))
	}
	db.Flush(tl)
	it := db.NewIterator(tl, true)
	defer it.Close()
	if !it.SeekLast() {
		t.Fatal("empty reverse iterator")
	}
	count := 0
	prev := "~" // greater than any key
	for ok := true; ok; ok = it.Next() {
		if it.Key() >= prev {
			t.Fatalf("reverse keys out of order: %q after %q", it.Key(), prev)
		}
		prev = it.Key()
		count++
	}
	if count != n {
		t.Fatalf("reverse iterated %d keys, want %d", count, n)
	}
}

func TestIteratorSeek(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	for i := 0; i < 100; i++ {
		db.Put(tl, BenchKey(int64(i*2)), []byte("v"))
	}
	db.Flush(tl)
	it := db.NewIterator(tl, false)
	defer it.Close()
	if !it.Seek(BenchKey(51)) {
		t.Fatal("seek failed")
	}
	if it.Key() != BenchKey(52) {
		t.Fatalf("seek landed on %q, want %q", it.Key(), BenchKey(52))
	}
}

func TestIteratorShadowingAndTombstones(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	for i := 0; i < 100; i++ {
		db.Put(tl, BenchKey(int64(i)), []byte("old"))
	}
	db.Flush(tl)
	for i := 0; i < 100; i += 2 {
		db.Put(tl, BenchKey(int64(i)), []byte("new"))
	}
	for i := 1; i < 100; i += 4 {
		db.Delete(tl, BenchKey(int64(i)))
	}
	it := db.NewIterator(tl, false)
	defer it.Close()
	count := 0
	for ok := it.SeekFirst(); ok; ok = it.Next() {
		i := count
		_ = i
		if it.Key()[:3] != "key" {
			t.Fatalf("bad key %q", it.Key())
		}
		count++
	}
	if count != 75 {
		t.Fatalf("iterator saw %d keys, want 75", count)
	}
}

func TestReopenRecoversData(t *testing.T) {
	sys := testSys(crossprefetch.OSOnly)
	tl := sys.Timeline()
	opt := Options{Sys: sys, MemtableBytes: 64 << 10, BlockBytes: 4 << 10}
	db, err := Open(tl, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		db.Put(tl, BenchKey(int64(i)), benchValue(int64(i), 64))
	}
	// Some data flushed, some only in the WAL.
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
	// Unflushed writes after close (simulating a crash with WAL intact).
	db.Put(tl, "late", []byte("wal-only"))

	db2, err := Open(tl, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		v, ok, err := db2.Get(tl, BenchKey(int64(i)))
		if err != nil || !ok || !bytes.Equal(v, benchValue(int64(i), 64)) {
			t.Fatalf("key %d lost across reopen (%v %v)", i, ok, err)
		}
	}
	if v, ok, _ := db2.Get(tl, "late"); !ok || string(v) != "wal-only" {
		t.Fatal("WAL-only write lost across reopen")
	}
}

func TestBloomFilterEffectiveness(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	for i := 0; i < 2000; i++ {
		db.Put(tl, BenchKey(int64(i)), []byte("v"))
	}
	db.Flush(tl)
	db.WaitIdle(tl)
	before := db.Stats().BlockReads
	// Misses should mostly be filtered without block I/O.
	for i := 0; i < 500; i++ {
		db.Get(tl, BenchKey(int64(1_000_000+i)))
	}
	extra := db.Stats().BlockReads - before
	if extra > 50 {
		t.Fatalf("bloom filter let %d/500 misses through to blocks", extra)
	}
}

func TestBloomUnit(t *testing.T) {
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i], _ = bloomHash(k)
	}
	b := newBloomFromHashes(hashes, 10)
	for _, k := range keys {
		if !b.mayContain(k) {
			t.Fatalf("false negative for %s", k)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if b.mayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	if fp > 60 {
		t.Fatalf("false positive rate too high: %d/1000", fp)
	}
}

// Property: a memtable answers get at every snapshot with the newest
// version at or below it, as a reference history does, and its level-0
// chain is ordered by key ascending, then seq descending. Each case makes
// enough puts over few enough keys that every node slab size fills, and
// its values span the value slab's sizes and the unslabbed large ones.
func TestMemtableProperty(t *testing.T) {
	type ver struct {
		seq uint64
		val []byte
		del bool
	}
	const puts, keys = 5000, 300
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMemtable(seed)
		hist := make(map[string][]ver) // per key, oldest first
		var seq uint64
		for i := 0; i < puts; i++ {
			seq++
			k := fmt.Sprintf("k%03d", rng.Intn(keys))
			del := rng.Intn(10) == 0
			var v []byte
			switch {
			case del:
			case rng.Intn(100) == 0:
				v = benchValue(int64(seq), rng.Intn(80<<10))
			default:
				v = benchValue(int64(seq), rng.Intn(200))
			}
			m.put(k, v, seq, del)
			hist[k] = append(hist[k], ver{seq, v, del})
		}
		for snap := uint64(0); snap <= seq; snap += 1 + uint64(rng.Intn(500)) {
			for k, vs := range hist {
				var want *ver
				for i := range vs {
					if vs[i].seq <= snap {
						want = &vs[i]
					}
				}
				got, del, ok := m.get(k, snap)
				if want == nil {
					if ok {
						t.Logf("seed %d: %s at seq %d found, want absent", seed, k, snap)
						return false
					}
					continue
				}
				if !ok || del != want.del || !bytes.Equal(got, want.val) {
					t.Logf("seed %d: %s at seq %d = (%d bytes, del %v, ok %v), want version %d", seed, k, snap, len(got), del, ok, want.seq)
					return false
				}
			}
		}
		n := 0
		for x := m.first(); x != nil; x = x.next[0] {
			n++
			if y := x.next[0]; y != nil && !entryLess(x.key, x.seq, y.key, y.seq) {
				t.Logf("seed %d: (%s, %d) walks before (%s, %d)", seed, x.key, x.seq, y.key, y.seq)
				return false
			}
		}
		if n != puts {
			t.Logf("seed %d: the walk met %d nodes, want %d", seed, n, puts)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// An iterator copies the memtables' entries when it opens, and those
// entries point into the memtable's slabs: a flush, and the memtables that
// fill after it, must not change what it returns.
func TestIteratorOutlivesFlushedMemtable(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	want := make(map[string][]byte)
	for i := 0; i < 3000; i++ {
		k := BenchKey(int64(i % 1200))
		switch {
		case i%7 == 3:
			db.Delete(tl, k)
			delete(want, k)
		default:
			v := benchValue(int64(i), 20+i%90)
			db.Put(tl, k, v)
			want[k] = v
		}
	}
	it := db.NewIterator(tl, false)
	defer it.Close()
	if err := db.Flush(tl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := db.Put(tl, BenchKey(int64(i%2500)), benchValue(int64(-1-i), 20+i%90)); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle(tl)
	n := 0
	for ok := it.SeekFirst(); ok; ok = it.Next() {
		v, live := want[it.Key()]
		if !live || !bytes.Equal(it.Value(), v) {
			t.Fatalf("key %q: iterator has %d bytes, the pre-flush contents %d (live %v)", it.Key(), len(it.Value()), len(v), live)
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("iterator returned %d keys, the pre-flush contents hold %d", n, len(want))
	}
}

// A Get answered from the memtable returns a copy: once the memtable is
// flushed its slabs carry the next memtables' values, and what the caller
// holds must not change with them.
func TestMemtableGetSurvivesRotations(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	var held, want [][]byte
	for i := 0; db.Stats().Flushes == 0; i++ {
		k := BenchKey(int64(i))
		v := benchValue(int64(i), 100)
		if err := db.Put(tl, k, v); err != nil {
			t.Fatal(err)
		}
		got, ok, err := db.Get(tl, k)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get %s from the memtable: ok %v, err %v", k, ok, err)
		}
		held, want = append(held, got), append(want, v)
	}
	for i := int64(0); db.Stats().Flushes < 5; i++ {
		if err := db.Put(tl, BenchKey(i%500), benchValue(-1-i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range held {
		if !bytes.Equal(held[i], want[i]) {
			t.Fatalf("the value Get returned for %s from the memtable changed after four more rotations", BenchKey(int64(i)))
		}
	}
}

// A value above the memtable's current slab size but within the slabbed
// range gets a slab of its own size: Put, Get and the log's replay on
// reopen all carry it.
func TestPutValueLargerThanSlab(t *testing.T) {
	sys := testSys(crossprefetch.OSOnly)
	tl := sys.Timeline()
	opt := Options{Sys: sys, MemtableBytes: 4 << 20, BlockBytes: 4 << 10}
	db, err := Open(tl, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Closing the empty database writes the manifest a reopen reads before
	// it replays the log.
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
	sizes := []int{4<<10 + 1, 10 << 10, 40 << 10, 64 << 10, 64<<10 + 1}
	check := func(db *DB, when string) {
		t.Helper()
		for i, n := range sizes {
			v, ok, err := db.Get(tl, BenchKey(int64(i)))
			if err != nil || !ok || !bytes.Equal(v, benchValue(int64(i), n)) {
				t.Fatalf("%s: %d-byte value read back as %d bytes (ok %v, err %v)", when, n, len(v), ok, err)
			}
		}
	}
	for i, n := range sizes {
		if err := db.Put(tl, BenchKey(int64(i)), benchValue(int64(i), n)); err != nil {
			t.Fatal(err)
		}
	}
	check(db, "before reopen")
	db2, err := Open(tl, opt)
	if err != nil {
		t.Fatal(err)
	}
	check(db2, "after log replay")
}

func TestSSTableRoundTripProperty(t *testing.T) {
	sys := testSys(crossprefetch.OSOnly)
	tl := sys.Timeline()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(500)
		keys := make([]string, n)
		vals := make([][]byte, n)
		for i := 0; i < n; i++ {
			keys[i] = fmt.Sprintf("key%08d", i*3+rng.Intn(3))
			vals[i] = benchValue(int64(i), 10+rng.Intn(100))
		}
		// Keys must be unique & sorted; regenerate deterministically.
		name := fmt.Sprintf("tbl-%d", trial)
		f, err := sys.Create(tl, name)
		if err != nil {
			t.Fatal(err)
		}
		w := newTableWriter(tl, f, new(writeScratch), 2048)
		for i := 0; i < n; i++ {
			keys[i] = fmt.Sprintf("key%08d", i)
			if err := w.add(keys[i], vals[i], uint64(i+1), false); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := w.finish(10); err != nil {
			t.Fatal(err)
		}
		rf, _ := sys.Open(tl, name)
		tbl, err := openTable(tl, uint64(trial), name, rf)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.count != int64(n) {
			t.Fatalf("count = %d, want %d", tbl.count, n)
		}
		for i := 0; i < n; i += 7 {
			v, del, ok, err := tbl.get(tl, keys[i], ^uint64(0))
			if err != nil || !ok || del || !bytes.Equal(v, vals[i]) {
				t.Fatalf("trial %d key %s mismatch (%v %v %v)", trial, keys[i], ok, del, err)
			}
		}
		if _, _, ok, _ := tbl.get(tl, "key99999999", ^uint64(0)); ok {
			t.Fatal("phantom key")
		}
	}
}

func TestConcurrentReaders(t *testing.T) {
	cfg := BenchConfig{
		Sys:     testSys(crossprefetch.CrossPredictOpt),
		DB:      Options{MemtableBytes: 128 << 10, BlockBytes: 4 << 10},
		NumKeys: 3000, ValueBytes: 100,
		Threads: 4, Workload: ReadRandom, OpsPerThread: 500, Seed: 3,
	}
	res, err := RunBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 2000 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.KopsPerSec <= 0 {
		t.Fatal("no throughput")
	}
	if res.DB.Hits != res.DB.Gets {
		t.Fatalf("random reads over live keys should all hit: %d/%d", res.DB.Hits, res.DB.Gets)
	}
}

func TestBenchWorkloadsRun(t *testing.T) {
	for _, w := range []Workload{ReadSeq, ReadReverse, ReadScan, MultiReadRandom, FillSeq} {
		t.Run(string(w), func(t *testing.T) {
			res, err := RunBench(BenchConfig{
				Sys:     testSys(crossprefetch.OSOnly),
				DB:      Options{MemtableBytes: 128 << 10, BlockBytes: 4 << 10},
				NumKeys: 2000, ValueBytes: 100,
				Threads: 2, Workload: w, OpsPerThread: 400, Seed: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 || res.Makespan <= 0 {
				t.Fatalf("empty result: %+v", res)
			}
		})
	}
}

func TestApproachShapesMultiReadRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	run := func(a crossprefetch.Approach) BenchResult {
		res, err := RunBench(BenchConfig{
			Sys: crossprefetch.NewSystem(crossprefetch.Config{
				MemoryBytes: 64 << 20, Approach: a,
			}),
			DB:      Options{MemtableBytes: 1 << 20, BlockBytes: 16 << 10},
			NumKeys: 40_000, ValueBytes: 800, // ~37MB of values
			Threads: 4, Workload: MultiReadRandom, OpsPerThread: 4000, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	app := run(crossprefetch.AppOnly)
	cross := run(crossprefetch.CrossPredictOpt)
	// Figure 2 / Figure 7a shape: cross-layered prefetching beats the
	// RocksDB-style APPonly (readahead disabled) configuration.
	if cross.KopsPerSec <= app.KopsPerSec {
		t.Fatalf("CrossPredictOpt (%.0f kops) should beat APPonly (%.0f kops)",
			cross.KopsPerSec, app.KopsPerSec)
	}
	if cross.MissPct >= app.MissPct {
		t.Fatalf("CrossPredictOpt miss%% (%.1f) should be below APPonly (%.1f)",
			cross.MissPct, app.MissPct)
	}
}

func TestIteratorSeekBack(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	tl := db.sys.Timeline()
	for i := 0; i < 100; i++ {
		db.Put(tl, BenchKey(int64(i*2)), []byte("v"))
	}
	db.Flush(tl)
	it := db.NewIterator(tl, true)
	defer it.Close()
	// Target between keys: lands on the last key <= target.
	if !it.SeekBack(BenchKey(51)) {
		t.Fatal("seekback failed")
	}
	if it.Key() != BenchKey(50) {
		t.Fatalf("seekback landed on %q, want %q", it.Key(), BenchKey(50))
	}
	// Walks strictly backwards from there.
	prev := it.Key()
	count := 1
	for it.Next() {
		if it.Key() >= prev {
			t.Fatalf("reverse order violated: %q after %q", it.Key(), prev)
		}
		prev = it.Key()
		count++
	}
	if count != 26 {
		t.Fatalf("seekback iterated %d keys, want 26", count)
	}
	// Target beyond the last key starts at the end.
	if !it.SeekBack(BenchKey(10_000)) || it.Key() != BenchKey(198) {
		t.Fatalf("seekback beyond end landed on %q", it.Key())
	}
	// Target before the first key finds nothing.
	it2 := db.NewIterator(tl, true)
	defer it2.Close()
	if it2.SeekBack("kex") {
		t.Fatalf("seekback before start should be invalid, got %q", it2.Key())
	}
}

// TestConcurrentGetPutRace pins the Get/memtable race the YCSB mixed
// workloads tripped over: Get used to snapshot the active memtable
// pointer under RLock, drop the lock, and then traverse the live
// skiplist while concurrent writers spliced nodes into it under the
// write lock. Pre-fix this fails under -race within a handful of
// iterations; post-fix the memtable probes happen inside the RLock.
func TestConcurrentGetPutRace(t *testing.T) {
	db := testDB(t, crossprefetch.OSOnly)
	const keys = 64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := simtime.NewTimeline(0)
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("key-%03d", i%keys)
				if w == 0 {
					if err := db.Put(tl, k, []byte(k)); err != nil {
						t.Error(err)
						return
					}
				} else if v, ok, err := db.Get(tl, k); err != nil {
					t.Error(err)
					return
				} else if ok && string(v) != k {
					t.Errorf("Get %s = %q", k, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A merge drops shadowed versions even when a key's versions straddle a
// block boundary: the survivor test compares against a copy of the last
// key, because a source overwrites its block buffer when it moves on.
func TestMergeDropsVersionsAcrossBlocks(t *testing.T) {
	sys := testSys(crossprefetch.OSOnly)
	tl := sys.Timeline()
	db, err := Open(tl, Options{Sys: sys, MemtableBytes: 1 << 30, BlockBytes: 4 << 10, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	const keys, hot, versions = 1000, 500, 20
	var newest []byte
	for round := 0; round < 4; round++ {
		for i := 0; i < keys; i++ {
			if err := db.Put(tl, BenchKey(int64(i)), benchValue(int64(round*keys+i), 100)); err != nil {
				t.Fatal(err)
			}
			if i != hot {
				continue
			}
			for v := 0; v < versions; v++ { // 20 × 1KB: about five 4KB blocks
				newest = benchValue(int64(round*versions+v), 1<<10)
				if err := db.Put(tl, BenchKey(hot), newest); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := db.Flush(tl); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.compactLevel(tl, 0); err != nil {
		t.Fatal(err)
	}
	v := db.current.Load()
	var entries int64
	for _, tb := range v.levels[1] {
		entries += tb.count
	}
	if len(v.levels[0]) != 0 || entries != keys {
		t.Fatalf("after compacting L0: %d L0 tables, %d L1 entries, want 0 and %d", len(v.levels[0]), entries, keys)
	}
	if got, ok, err := db.Get(tl, BenchKey(hot)); err != nil || !ok || !bytes.Equal(got, newest) {
		t.Fatalf("Get(hot) = %d bytes, %v, %v: want the newest version", len(got), ok, err)
	}
}

// benchValue writes a word at a time the bytes the byte-at-a-time
// definition below wrote, for every tail length.
func TestBenchValueBytes(t *testing.T) {
	reference := func(i int64, size int) []byte {
		v := make([]byte, size)
		x := uint64(i)*6364136223846793005 + 1442695040888963407
		for j := range v {
			v[j] = byte(x >> (8 * (uint(j) % 8)))
			if j%8 == 7 {
				x = x*6364136223846793005 + 1442695040888963407
			}
		}
		return v
	}
	reused := make([]byte, 0, 67)
	for _, i := range []int64{0, 1, 7, 4242, -1, 1 << 40} {
		for size := 0; size <= 67; size++ {
			want := reference(i, size)
			if got := benchValue(i, size); !bytes.Equal(got, want) {
				t.Fatalf("benchValue(%d, %d) = %x, want %x", i, size, got, want)
			}
			if got := fillBenchValue(reused[:size], i); !bytes.Equal(got, want) {
				t.Fatalf("fillBenchValue over a reused buffer (%d, %d) = %x, want %x", i, size, got, want)
			}
		}
	}
}

// BenchKey spells every key as fmt's "key%016d" does: padded below 10¹⁶,
// longer from there on, and with the sign inside the width for negatives.
func TestBenchKeyMatchesSprintf(t *testing.T) {
	const e16 = int64(1e16)
	cases := []int64{0, 1, 9, 10, 42, 1e15, e16 - 1, e16, e16 + 1, 1e18, math.MaxInt64,
		-1, -9, -10, -1e14, -1e15 + 1, -1e15, -e16, math.MinInt64 + 1, math.MinInt64}
	for i := int64(1); i > 0 && i < math.MaxInt64/10; i *= 10 {
		cases = append(cases, i-1, i, i+1, -i-1, -i, -i+1)
	}
	for _, i := range cases {
		if got, want := BenchKey(i), fmt.Sprintf("key%016d", i); got != want {
			t.Errorf("BenchKey(%d) = %q, want %q", i, got, want)
		}
	}
}
