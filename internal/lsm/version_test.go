package lsm

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	crossprefetch "repro"
	"repro/internal/simtime"
)

// keyedValue is a value that names its key, so that any version of the
// key a reader may legitimately see checks out and anything else — a
// block of a removed file reads back as zeroes — does not.
func keyedValue(key string, version int) []byte {
	return []byte(strings.Repeat(key, 3) + string(rune('a'+version%26)))
}

// Readers run against flushes and compactions installing new versions
// (run with -race). A version that a reader holds keeps every one of its
// table files on disk; once all readers are gone, the files on disk are
// exactly the tables of the current version.
func TestReadersAgainstVersionInstalls(t *testing.T) {
	sys := testSys(crossprefetch.CrossPredictOpt)
	db, err := Open(sys.Timeline(), Options{Sys: sys, MemtableBytes: 32 << 10, BlockBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 600
	names := make([]string, keys)
	for i := range names {
		names[i] = BenchKey(int64(i))
	}
	tl := sys.Timeline()
	for _, k := range names {
		if err := db.Put(tl, k, keyedValue(k, 0)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var readers sync.WaitGroup
	reader := func(f func(tl *simtime.Timeline, i int)) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			tl := simtime.NewTimeline(0)
			for i := 0; !stop.Load(); i++ {
				f(tl, i)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		r := r
		reader(func(tl *simtime.Timeline, i int) {
			k := names[(i*31+r*7)%keys]
			v, ok, err := db.Get(tl, k)
			if err != nil || !ok || !strings.HasPrefix(string(v), k) {
				t.Errorf("Get %s = %q %v %v", k, v, ok, err)
				stop.Store(true)
			}
		})
	}
	reader(func(tl *simtime.Timeline, i int) {
		it := db.NewIterator(tl, i%2 == 1)
		defer it.Close()
		seek := it.Seek
		if it.reverse {
			seek = it.SeekBack
		}
		ok := seek(names[(i*13)%keys])
		for n := 0; ok && n < 40; n++ {
			if !strings.HasPrefix(string(it.Value()), it.Key()) {
				t.Errorf("iterator at %s holds %q", it.Key(), it.Value())
				stop.Store(true)
				return
			}
			ok = it.Next()
		}
	})
	reader(func(_ *simtime.Timeline, _ int) {
		v := db.pin()
		defer v.unpin()
		for _, lvl := range v.levels {
			for _, tbl := range lvl {
				if ino, err := sys.FS().Open(tbl.name); err != nil || ino.Size() != tbl.size {
					t.Errorf("version %d holds table %s, but its file is gone or cut short (%v)", v.id, tbl.name, err)
					stop.Store(true)
					return
				}
			}
		}
	})

	for round := 1; round <= 12 && !stop.Load(); round++ {
		for _, k := range names {
			if err := db.Put(tl, k, keyedValue(k, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	readers.Wait()
	if s := db.Stats(); s.Flushes < 10 || s.Compactions < 2 || s.BackgroundErrors != 0 {
		t.Fatalf("flushes %d, compactions %d, background errors %d: the readers were not raced against installs", s.Flushes, s.Compactions, s.BackgroundErrors)
	}

	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, lvl := range db.current.Load().levels {
		for _, tbl := range lvl {
			want = append(want, tbl.name)
		}
	}
	got := tableFiles(db)
	if len(got) != len(want) {
		t.Errorf("%d table files on disk, %d tables in the current version: %v vs %v", len(got), len(want), got, want)
	}
	if len(db.zombies) != 0 || len(db.retired) != 0 {
		t.Errorf("%d dropped tables and %d old versions still tracked with no reader left", len(db.zombies), len(db.retired))
	}
}
