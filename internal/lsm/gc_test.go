package lsm

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	crossprefetch "repro"
)

// What a run reuses of what the collector has not yet taken is the
// collector's call: the file store's freed chunks, and anything pooled.
// None of it may reach virtual time. One seeded workload of Puts, Deletes
// and Gets runs twice: with the collector off, so that every chunk a
// compaction's inputs or a rotated log give back is reused, and with a
// collection after every flush and compaction, so that a chunk is reused
// only by the job that freed it. Both runs must end with the same table
// files, at the same virtual time, with the same DB and device counters.
func TestCollectorCannotReachVirtualTime(t *testing.T) {
	run := func(collect bool) string {
		sys := goldenSys(crossprefetch.CrossPredictOpt, 3<<20)
		tl := sys.Timeline()
		db, err := Open(tl, Options{Sys: sys, MemtableBytes: 256 << 10, BlockBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(37))
		var jobs int64
		for i := 0; i < 30_000; i++ {
			k := BenchKey(int64(rng.Intn(10_000)))
			switch r := rng.Intn(100); {
			case r < 60:
				err = db.Put(tl, k, benchValue(int64(i), 100+rng.Intn(400)))
			case r < 63:
				err = db.Delete(tl, k)
			default:
				_, _, err = db.Get(tl, k)
			}
			if err != nil {
				t.Fatal(err)
			}
			if s := db.Stats(); collect && s.Flushes+s.Compactions != jobs {
				jobs = s.Flushes + s.Compactions
				runtime.GC()
			}
		}
		db.WaitIdle(tl)
		st := db.Stats()
		if st.Flushes == 0 || st.Compactions == 0 {
			t.Fatalf("%d flushes and %d compactions: the workload must give chunks back", st.Flushes, st.Compactions)
		}
		digest, n := tableDigest(t, sys, "db")
		dev := sys.Metrics().Device
		return fmt.Sprintf("now=%d tables=%d/%s stats=%+v dev={r:%d/%d w:%d/%d busy:%d}",
			tl.Now(), n, digest, st, dev.ReadOps, dev.ReadBytes, dev.WriteOps, dev.WriteBytes, dev.Busy)
	}
	gc := debug.SetGCPercent(-1)
	quiet := run(false)
	debug.SetGCPercent(gc)
	if collected := run(true); collected != quiet {
		t.Errorf("the collector moved the run:\n collector off %s\n  after each job %s", quiet, collected)
	}
}
