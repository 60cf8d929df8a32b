package lsm

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	crossprefetch "repro"
	"repro/internal/simtime"
)

// The golden values below were recorded by running this file unchanged
// against the engine it pins a replacement of: the whole-image table
// builder, the eager block decoder and the per-Get table snapshots. It
// uses only calls that engine also had (Open, Put, Delete, Get, Flush,
// WaitIdle, Stats, the file system's listing), so the same file runs on
// both sides. A host-side change to the engine must reproduce every value
// bit for bit; a change to the table format, to block or output-table
// boundaries, or to the order and timing of the engine's file operations
// shows here before it shows as a moved benchmark digest.

// goldenSys is the benchmark's stack.
func goldenSys(a crossprefetch.Approach, mem int64) *crossprefetch.System {
	return crossprefetch.NewSystem(crossprefetch.Config{Approach: a, MemoryBytes: mem, BlockSize: 4096})
}

// tableDigest hashes name, size and content of every table file.
func tableDigest(t *testing.T, sys *crossprefetch.System, dir string) (string, int) {
	t.Helper()
	h := sha256.New()
	n := 0
	for _, name := range sys.FS().List() {
		if !strings.HasPrefix(name, dir+"/") || !strings.HasSuffix(name, ".sst") {
			continue
		}
		ino, err := sys.FS().Open(name)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, ino.Size())
		if got := ino.ReadAt(raw, 0); got != len(raw) {
			t.Fatalf("%s: read %d of %d bytes", name, got, len(raw))
		}
		fmt.Fprintf(h, "%s %d\n", name, len(raw))
		h.Write(raw)
		n++
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12]), n
}

// goldenFill writes n seeded operations: unique-ish keys in random order,
// overwrites, tombstones, and values of 40–400 bytes.
func goldenFill(t *testing.T, db *DB, tl *simtime.Timeline, rng *rand.Rand, keySpace, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := BenchKey(int64(rng.Intn(keySpace)))
		if rng.Intn(16) == 0 {
			if err := db.Delete(tl, k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := db.Put(tl, k, benchValue(rng.Int63(), 40+rng.Intn(360))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGoldenTableImage(t *testing.T) {
	const (
		wantFlush   = "f7ce7f06b3ce3dab7613914c" // one flushed table, 2.2 MB: three 1 MB write chunks
		wantCompact = "e033ea4c715250a49f9e0ecb" // L0→L1 outputs, cut at 2× memtable, each crossing a chunk
	)
	sys := goldenSys(crossprefetch.CrossPredictOpt, 256<<20)
	tl := sys.Timeline()
	rng := rand.New(rand.NewSource(13))

	// A flush whose table spans several write chunks.
	big, err := Open(tl, Options{Sys: sys, Dir: "big", MemtableBytes: 16 << 20, BlockBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	goldenFill(t, big, tl, rng, 40_000, 9_000)
	if err := big.Flush(tl); err != nil {
		t.Fatal(err)
	}
	got, n := tableDigest(t, sys, "big")
	if n != 1 || got != wantFlush {
		t.Errorf("flushed table: %d files, digest %s, want 1 file, %s", n, got, wantFlush)
	}

	// Four flushes over one key space, then the L0→L1 compaction the
	// fourth one triggers; overwrites and tombstones across the inputs.
	db, err := Open(tl, Options{Sys: sys, Dir: "cmp", MemtableBytes: 1 << 20, BlockBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ {
		goldenFill(t, db, tl, rng, 30_000, 3_500)
		if err := db.Flush(tl); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle(tl)
	if s := db.Stats(); s.Flushes != 4 || s.Compactions != 1 {
		t.Fatalf("flushes %d, compactions %d, want 4 and 1", s.Flushes, s.Compactions)
	}
	if tt := db.TotalTables(); tt[0] != 0 || tt[1] < 2 {
		t.Fatalf("tables per level %v, want none in L0 and at least two in L1", tt)
	}
	got, n = tableDigest(t, sys, "cmp")
	if got != wantCompact {
		t.Errorf("compaction outputs: %d files, digest %s, want %s", n, got, wantCompact)
	}
}

func TestGoldenLSMVirtualSequence(t *testing.T) {
	for _, c := range []struct {
		a    crossprefetch.Approach
		want string
	}{
		{crossprefetch.CrossPredictOpt, "now=617939048 found=13734 scanned=1000 db={puts:28933 gets:31067 hits:13734 flushes:35 compactions:19 read:33930398 written:30924720 blockreads:14067} tables=[3 2 8 0 0 0 0] disk=5364046 dev={r:8411/52060160 w:304/49291264 busy:105121860}"},
		{crossprefetch.AppOnly, "now=599777392 found=13734 scanned=1000 db={puts:28933 gets:31067 hits:13734 flushes:35 compactions:19 read:33930398 written:30924720 blockreads:14067} tables=[3 2 8 0 0 0 0] disk=5364046 dev={r:9486/51388416 w:303/49303552 busy:106825126}"},
	} {
		a, w := c.a, c.want
		t.Run(a.String(), func(t *testing.T) {
			sys := goldenSys(a, 3<<20)
			tl := sys.Timeline()
			db, err := Open(tl, Options{Sys: sys, MemtableBytes: 256 << 10, BlockBytes: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(29))
			const keySpace = 20_000
			found := 0
			for i := 0; i < 60_000; i++ {
				k := BenchKey(int64(rng.Intn(keySpace)))
				switch r := rng.Intn(100); {
				case r < 45:
					if err := db.Put(tl, k, benchValue(int64(i), 100+rng.Intn(400))); err != nil {
						t.Fatal(err)
					}
				case r < 48:
					if err := db.Delete(tl, k); err != nil {
						t.Fatal(err)
					}
				default:
					_, ok, err := db.Get(tl, k)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						found++
					}
				}
				if i%17_000 == 16_999 {
					if err := db.Flush(tl); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A short scan in each direction: the iterators share the
			// block decoder with Get and the compaction merge.
			scanned := 0
			it := db.NewIterator(tl, false)
			for ok := it.Seek(BenchKey(keySpace / 2)); ok && scanned < 500; ok = it.Next() {
				scanned++
			}
			it = db.NewIterator(tl, true)
			for ok := it.SeekBack(BenchKey(keySpace / 2)); ok && scanned < 1000; ok = it.Next() {
				scanned++
			}
			db.WaitIdle(tl)
			dev := sys.Metrics().Device
			st := db.Stats()
			got := fmt.Sprintf("now=%d found=%d scanned=%d db={puts:%d gets:%d hits:%d flushes:%d compactions:%d read:%d written:%d blockreads:%d} tables=%v disk=%d dev={r:%d/%d w:%d/%d busy:%d}",
				tl.Now(), found, scanned, st.Puts, st.Gets, st.Hits, st.Flushes, st.Compactions,
				st.CompactBytesRead, st.CompactBytesWritten, st.BlockReads, db.TotalTables(), db.DiskBytes(),
				dev.ReadOps, dev.ReadBytes, dev.WriteOps, dev.WriteBytes, dev.Busy)
			if got != w {
				t.Errorf("virtual sequence moved:\n got %s\nwant %s", got, w)
			}
		})
	}
}
