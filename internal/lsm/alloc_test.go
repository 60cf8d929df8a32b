package lsm

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	crossprefetch "repro"
	"repro/internal/simtime"
)

// mallocsPer runs f n times and returns the mean number of heap
// allocations per run, fractions kept (testing.AllocsPerRun rounds down).
func mallocsPer(n int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// fewestPer runs f n times and returns the fewest heap allocations and
// the fewest bytes allocated by any one run. For a guard whose few runs
// each allocate the same: a runtime event that allocates while one runs
// (seen under go test's -test.timeout) only adds, where a mean over so
// few runs would carry it into the budget.
func fewestPer(n int, f func(i int)) (mallocs, bytes uint64) {
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	runtime.GC() // once: a collection inside the loop would empty the pools each run refills
	for i := 0; i < n; i++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f(i)
		runtime.ReadMemStats(&b)
		mallocs = min(mallocs, b.Mallocs-a.Mallocs)
		bytes = min(bytes, b.TotalAlloc-a.TotalAlloc)
	}
	return mallocs, bytes
}

// A Get answered from a table allocates the value it returns and nothing
// else of the engine's: no snapshot of the table lists, no decoded block.
func TestGetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, a := range []crossprefetch.Approach{crossprefetch.OSOnly, crossprefetch.CrossPredictOpt} {
		sys := testSys(a)
		tl := sys.Timeline()
		db, err := Open(tl, Options{Sys: sys, MemtableBytes: 256 << 10})
		if err != nil {
			t.Fatal(err)
		}
		const keys = 4000
		names := make([]string, keys)
		for i := range names {
			names[i] = BenchKey(int64(i))
			if err := db.Put(tl, names[i], benchValue(int64(i), 300)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(tl); err != nil {
			t.Fatal(err)
		}
		db.WaitIdle(tl)
		if tt := db.TotalTables(); tt[1] == 0 {
			t.Fatalf("tables per level %v: the load should have compacted into L1", tt)
		}
		read := func(i int) {
			if _, ok, err := db.Get(tl, names[(i*7919)%keys]); err != nil || !ok {
				t.Fatalf("Get: %v %v", ok, err)
			}
		}
		for i := 0; i < keys; i++ { // every block resident, every pool warm
			read(i)
		}
		if got := mallocsPer(2000, read); got > 2 {
			t.Errorf("%v: %.2f allocations per table-hit Get, budget 2", a, got)
		}
	}
}

// A Put in steady state allocates nothing of its own: its skiplist node
// and its value are carved from the memtable's slabs and its log record
// goes through the reused buffer. What is left is the log file's data
// growing by a 32KB chunk every few hundred records, and a new node or
// value slab every thousand Puts or so.
func TestPutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	sys := testSys(crossprefetch.OSOnly)
	tl := sys.Timeline()
	db, err := Open(tl, Options{Sys: sys, MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	names := make([]string, 2*n)
	for i := range names {
		names[i] = BenchKey(int64(i))
	}
	val := benchValue(1, 64)
	put := func(i int) {
		if err := db.Put(tl, names[i], val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		put(i)
	}
	got := mallocsPer(n, func(i int) { put(n + i) })
	t.Logf("%.4f allocations per Put", got)
	if got > 0.1 {
		t.Errorf("%.3f allocations per Put, budget 0.1 (the log file's data and the slabs)", got)
	}
}

// A flushed memtable's slabs carry the next memtable. With the collector
// off, so that no spare block is collected, the Puts that fill four
// memtables in a row after the first flush allocate less than one
// memtable's slabs: its values alone take about three quarters of
// MemtableBytes, its skiplist nodes as much again. The Puts that rotate
// the memtable, and so run its flush inline, are not counted: the table
// they write is file data, not slabs.
func TestMemtableRotationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const memtable, rotations = 256 << 10, 4
	sys := testSys(crossprefetch.OSOnly)
	tl := sys.Timeline()
	db, err := Open(tl, Options{Sys: sys, MemtableBytes: memtable, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	val := benchValue(1, 100)
	names := make([]string, (1+rotations)*memtable/100)
	for i := range names {
		names[i] = BenchKey(int64(i))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var bytes uint64
	for i := 0; db.Stats().Flushes < 1+rotations; i++ {
		var a, b runtime.MemStats
		flushes := db.Stats().Flushes
		runtime.ReadMemStats(&a)
		if err := db.Put(tl, names[i], val); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&b)
		if flushes >= 1 && db.Stats().Flushes == flushes {
			bytes += b.TotalAlloc - a.TotalAlloc
		}
	}
	t.Logf("%d bytes allocated by the Puts that filled %d memtables", bytes, rotations)
	if bytes >= memtable {
		t.Errorf("the Puts that filled %d memtables after the first flush allocated %d bytes, want under %d: a flushed memtable's slabs should carry the next one", rotations, bytes, memtable)
	}
}

type discardSink struct{ bytes int64 }

func (d *discardSink) WriteAt(_ *simtime.Timeline, p []byte, off int64) (int, error) {
	if off != d.bytes {
		return 0, fmt.Errorf("write at %d, expected the next chunk at %d", off, d.bytes)
	}
	d.bytes += int64(len(p))
	return len(p), nil
}
func (d *discardSink) Fsync(*simtime.Timeline) error { return nil }

// Writing a table costs the same few allocations — the writer, the
// filter, the in-memory index — however many entries go into it: there is
// no image that grows with the table and no per-entry or per-block object.
func TestTableWriterAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	names := make([]string, 64_000)
	for i := range names {
		names[i] = BenchKey(int64(i))
	}
	val := benchValue(1, 200)
	var scratch writeScratch
	write := func(n int) uint64 {
		build := func(int) {
			var sink discardSink
			w := newTableWriter(nil, &sink, &scratch, 4<<10)
			for i := 0; i < n; i++ {
				if err := w.add(names[i], val, uint64(i+1), false); err != nil {
					t.Fatal(err)
				}
			}
			filter, size, err := w.finish(10)
			if err != nil || size != sink.bytes {
				t.Fatalf("finish: size %d, sink holds %d, err %v", size, sink.bytes, err)
			}
			tbl, err := newTable(1, "t", nil, scratch.index, w.blocks, filter, w.count, size)
			if err != nil || len(tbl.index) != w.blocks || tbl.largest != names[n-1] {
				t.Fatalf("index: %d blocks of %d, largest %q, err %v", len(tbl.index), w.blocks, tbl.largest, err)
			}
		}
		build(0) // grow the scratch to this size once
		mallocs, _ := fewestPer(3, build)
		return mallocs
	}
	small, large := write(1_000), write(64_000)
	if small > 8 || large > small+1 {
		t.Errorf("%d allocations for a 1k-entry table, %d for a 64k-entry one (14MB, 14 chunks): want a small constant for both", small, large)
	}
}

// A compaction's merge holds one block per input, not its inputs: plan and
// replay of k tables allocate a buffer of a block or so per table and four
// bytes of plan per input entry, and nothing else that grows with the
// tables; once the compaction worker's merge is warm, next to nothing.
func TestCompactionReadAllocsPerInput(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const k, blockBytes = 4, 4 << 10
	val := benchValue(1, 200)
	for _, perTable := range []int{1000, 4000} {
		sys := testSys(crossprefetch.OSOnly)
		tl := sys.Timeline()
		db, err := Open(tl, Options{Sys: sys, MemtableBytes: 1 << 30, BlockBytes: blockBytes, DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k*perTable; i++ {
			if err := db.Put(tl, BenchKey(int64(i%perTable*k+i/perTable)), val); err != nil {
				t.Fatal(err)
			}
			if (i+1)%perTable == 0 {
				if err := db.Flush(tl); err != nil {
					t.Fatal(err)
				}
			}
		}
		inputs := db.current.Load().levels[0]
		var entries, inputBytes int64
		for _, tb := range inputs {
			entries += tb.count
			for _, ie := range tb.index {
				inputBytes += ie.size
			}
		}
		if len(inputs) != k || entries != int64(k*perTable) {
			t.Fatalf("%d L0 tables of %d entries in all: want %d tables of %d", len(inputs), entries, k, perTable)
		}
		survivors := 0
		run := func(m *merge) {
			m.reset(inputs)
			if _, err := m.plan(tl); err != nil {
				t.Fatal(err)
			}
			survivors = 0
			if err := m.replay(func(*blockCursor) error { survivors++; return nil }); err != nil {
				t.Fatal(err)
			}
			m.release()
		}
		run(new(merge)) // every block resident
		if survivors != k*perTable {
			t.Fatalf("replay emitted %d entries, want %d", survivors, k*perTable)
		}
		_, fresh := fewestPer(3, func(int) { run(new(merge)) })
		if budget := uint64(k*2*blockBytes + 4*entries); fresh > budget {
			t.Errorf("%d entries per table: a fresh merge of %d tables (%d input bytes) allocates %d bytes, budget %d: %d×2 blocks + 4 per entry",
				perTable, k, inputBytes, fresh, budget, k)
		}
		var warm merge
		run(&warm)
		if _, got := fewestPer(3, func(int) { run(&warm) }); got > 64*k {
			t.Errorf("%d entries per table: a warm merge of %d tables allocates %d bytes, budget %d: a few small objects, none sized by the input", perTable, k, got, 64*k)
		}
	}
}
