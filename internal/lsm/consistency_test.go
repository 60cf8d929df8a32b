package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	crossprefetch "repro"
	"repro/internal/simtime"
)

// checkAgainstRef verifies Get and both iterator directions against a
// reference map.
func checkAgainstRef(t *testing.T, db *DB, tl *simtime.Timeline, ref map[string][]byte, step int) {
	t.Helper()
	// Point reads: every live key readable, a few absent keys invisible.
	for k, want := range ref {
		v, ok, err := db.Get(tl, k)
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("step %d: Get(%s) = %v %v, want live value", step, k, ok, err)
		}
	}
	if _, ok, _ := db.Get(tl, "zzz-absent"); ok {
		t.Fatalf("step %d: phantom key", step)
	}

	// Forward iteration: exactly the live keys, in order.
	var want []string
	for k := range ref {
		want = append(want, k)
	}
	sort.Strings(want)

	it := db.NewIterator(tl, false)
	defer it.Close()
	var got []string
	for ok := it.SeekFirst(); ok; ok = it.Next() {
		got = append(got, it.Key())
		if !bytes.Equal(it.Value(), ref[it.Key()]) {
			t.Fatalf("step %d: iterator value mismatch at %s", step, it.Key())
		}
	}
	if len(got) != len(want) {
		t.Fatalf("step %d: forward iterator saw %d keys, want %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: forward order mismatch at %d: %s != %s", step, i, got[i], want[i])
		}
	}

	// Reverse iteration: the same set, reversed.
	rit := db.NewIterator(tl, true)
	defer rit.Close()
	var rgot []string
	for ok := rit.SeekLast(); ok; ok = rit.Next() {
		rgot = append(rgot, rit.Key())
	}
	if len(rgot) != len(want) {
		t.Fatalf("step %d: reverse iterator saw %d keys, want %d", step, len(rgot), len(want))
	}
	for i := range rgot {
		if rgot[i] != want[len(want)-1-i] {
			t.Fatalf("step %d: reverse order mismatch at %d", step, i)
		}
	}
}

// TestRandomizedConsistency drives the store with a random mix of puts,
// overwrites, deletes, flushes, and reopen cycles, checking Get and both
// iterator directions against a reference map throughout — the LSM's main
// crash-free consistency property.
func TestRandomizedConsistency(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sys := testSys(crossprefetch.CrossPredictOpt)
			tl := sys.Timeline()
			opt := Options{Sys: sys, MemtableBytes: 32 << 10, BlockBytes: 2 << 10}
			db, err := Open(tl, opt)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			ref := make(map[string][]byte)

			const keySpace = 400
			for step := 0; step < 3000; step++ {
				k := BenchKey(rng.Int63n(keySpace))
				switch rng.Intn(10) {
				case 0: // delete
					if err := db.Delete(tl, k); err != nil {
						t.Fatal(err)
					}
					delete(ref, k)
				case 1: // flush
					if err := db.Flush(tl); err != nil {
						t.Fatal(err)
					}
				case 2: // reopen cycle
					if err := db.Close(tl); err != nil {
						t.Fatal(err)
					}
					db, err = Open(tl, opt)
					if err != nil {
						t.Fatal(err)
					}
				default: // put / overwrite
					v := benchValue(rng.Int63(), 20+rng.Intn(200))
					if err := db.Put(tl, k, v); err != nil {
						t.Fatal(err)
					}
					ref[k] = append([]byte(nil), v...)
				}

				if step%500 == 499 {
					checkAgainstRef(t, db, tl, ref, step)
				}
			}
			db.WaitIdle(tl)
			checkAgainstRef(t, db, tl, ref, -1)
		})
	}
}
