package lsm

import (
	"fmt"
	"testing"

	crossprefetch "repro"
	"repro/internal/simtime"
)

func benchDB(b *testing.B, a crossprefetch.Approach, keys int64) *DB {
	b.Helper()
	db, err := LoadDB(BenchConfig{
		Sys: crossprefetch.NewSystem(crossprefetch.Config{
			MemoryBytes: 64 << 20, Approach: a,
		}),
		DB:      Options{MemtableBytes: 512 << 10, BlockBytes: 16 << 10},
		NumKeys: keys, ValueBytes: 512, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkGet(b *testing.B) {
	db := benchDB(b, crossprefetch.OSOnly, 10_000)
	tl := db.sys.Timeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i*2654435761) % 10_000
		if k < 0 {
			k += 10_000
		}
		if _, ok, err := db.Get(tl, BenchKey(k)); err != nil || !ok {
			b.Fatalf("get %d failed: %v %v", k, ok, err)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: 64 << 20})
	tl := sys.Timeline()
	db, err := Open(tl, Options{Sys: sys, MemtableBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	val := benchValue(1, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(tl, BenchKey(int64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIteratorScan(b *testing.B) {
	db := benchDB(b, crossprefetch.OSOnly, 10_000)
	tl := db.sys.Timeline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := db.NewIterator(tl, false)
		n := 0
		for ok := it.SeekFirst(); ok && n < 100; ok = it.Next() {
			n++
		}
		it.Close()
	}
}

// BenchmarkMemtableSkiplist isolates the in-memory structure.
func BenchmarkMemtableSkiplist(b *testing.B) {
	m := newMemtable(1)
	val := benchValue(1, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.put(BenchKey(int64(i%50_000)), val, uint64(i+1), false)
		if i%4 == 3 {
			m.get(BenchKey(int64(i%50_000)), uint64(i+1))
		}
	}
}

// The size ladder: one op is one Put into, or one Get from, a store of up
// to N keys (100-byte values, 256MB of page cache, default options), so
// ns/op and allocs/op can be read against the store's size — memtable
// only at the low rungs, flushes from 10⁵, leveled compaction at 10⁶.
var ladder = []int{10, 100, 1_000, 10_000, 100_000, 1_000_000}

func ladderDB(b *testing.B) (*DB, *simtime.Timeline) {
	b.Helper()
	sys := crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: 256 << 20, Approach: crossprefetch.CrossPredictOpt})
	tl := sys.Timeline()
	db, err := Open(tl, Options{Sys: sys})
	if err != nil {
		b.Fatal(err)
	}
	return db, tl
}

func ladderKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = BenchKey(int64(i))
	}
	return keys
}

func BenchmarkLSMPut(b *testing.B) {
	val := benchValue(1, 100)
	for _, n := range ladder {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			keys := ladderKeys(n)
			var db *DB
			var tl *simtime.Timeline
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 { // the store is full: start an empty one
					b.StopTimer()
					db, tl = ladderDB(b)
					b.StartTimer()
				}
				if err := db.Put(tl, keys[i%n], val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLSMGet(b *testing.B) {
	val := benchValue(1, 100)
	for _, n := range ladder {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			keys := ladderKeys(n)
			db, tl := ladderDB(b)
			for _, k := range keys {
				if err := db.Put(tl, k, val); err != nil {
					b.Fatal(err)
				}
			}
			db.WaitIdle(tl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := db.Get(tl, keys[i*7919%n]); err != nil || !ok {
					b.Fatalf("get: %v %v", ok, err)
				}
			}
		})
	}
}

// BenchmarkCompaction times one L0→L1 merge of four overlapping 1MB
// tables: B/op and allocs/op are per compaction, MB/s is input bytes.
func BenchmarkCompaction(b *testing.B) {
	keys := ladderKeys(16_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: 256 << 20, Approach: crossprefetch.CrossPredictOpt})
		tl := sys.Timeline()
		db, err := Open(tl, Options{Sys: sys, MemtableBytes: 2 << 20, DisableAutoCompact: true})
		if err != nil {
			b.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			for k := round; k < len(keys); k += 3 {
				if err := db.Put(tl, keys[k], benchValue(int64(k+round), 200)); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(tl); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(db.DiskBytes())
		db.opt.DisableAutoCompact = false
		b.StartTimer()
		db.maybeCompact(tl)
		b.StopTimer()
		if s := db.Stats(); s.Compactions != 1 || db.TotalTables()[0] != 0 {
			b.Fatalf("compactions %d, tables %v", s.Compactions, db.TotalTables())
		}
	}
}
