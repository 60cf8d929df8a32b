package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/simtime"
)

// faultDB loads four overlapping L0 tables with compaction held back and
// returns what was acknowledged.
func faultDB(t *testing.T) (*DB, *simtime.Timeline, map[string][]byte) {
	t.Helper()
	sys := testSys(crossprefetch.OSOnly)
	tl := sys.Timeline()
	db, err := Open(tl, Options{Sys: sys, MemtableBytes: 1 << 20, BlockBytes: 4 << 10, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[string][]byte)
	for round := 0; round < 4; round++ {
		for i := 0; i < 400; i++ {
			// Rounds interleave over the key space; every third key of a
			// round is rewritten by the next one.
			k := BenchKey(int64(i*4 + round%3))
			v := benchValue(int64(round*1000+i), 200)
			if err := db.Put(tl, k, v); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		}
		if err := db.Flush(tl); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.TotalTables()[0]; got != 4 {
		t.Fatalf("L0 holds %d tables, want 4", got)
	}
	return db, tl, ref
}

func tableFiles(db *DB) []string {
	var names []string
	for _, n := range db.sys.FS().List() {
		if strings.HasSuffix(n, ".sst") {
			names = append(names, n)
		}
	}
	return names
}

func checkAllReadable(t *testing.T, db *DB, tl *simtime.Timeline, ref map[string][]byte) {
	t.Helper()
	lost := 0
	for k, want := range ref {
		got, ok, err := db.Get(tl, k)
		if err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
		if !ok || !bytes.Equal(got, want) {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged keys lost or stale", lost, len(ref))
	}
}

// A compaction that cannot read one of its inputs must leave every input
// installed. It used to drop the unreadable rest of that table from the
// merge, install the outputs and remove all inputs.
func TestCompactionReadFaultKeepsInputs(t *testing.T) {
	db, tl, ref := faultDB(t)
	sys := db.sys
	before := tableFiles(db)
	sys.DropAllCaches(tl) // the merge must go to the device

	victim, err := sys.FS().Open(before[1])
	if err != nil {
		t.Fatal(err)
	}
	bs := sys.Config().BlockSize
	var plan faultinject.Plan
	for _, r := range victim.MapRange(0, victim.Blocks()) {
		plan.Ranges = append(plan.Ranges, faultinject.RangeFault{
			Lo: r.Phys * bs, Hi: (r.Phys + r.Count) * bs, Class: faultinject.Persistent, Reads: true,
		})
	}
	sys.Device().SetFaultInjector(faultinject.New(plan))
	db.opt.DisableAutoCompact = false
	db.maybeCompact(tl)
	sys.Device().SetFaultInjector(nil)

	if s := db.Stats(); s.Compactions != 0 || s.BackgroundErrors != 1 {
		t.Errorf("compactions %d, background errors %d, want 0 and 1", s.Compactions, s.BackgroundErrors)
	}
	if after := tableFiles(db); strings.Join(after, " ") != strings.Join(before, " ") {
		t.Errorf("table files changed:\n before %v\n after  %v", before, after)
	}
	checkAllReadable(t, db, tl, ref)

	// With the fault gone the same compaction goes through.
	db.maybeCompact(tl)
	if tt := db.TotalTables(); tt[0] != 0 || tt[1] == 0 {
		t.Fatalf("tables per level after the retry %v, want L0 drained into L1", tt)
	}
	checkAllReadable(t, db, tl, ref)
}

func failAllWrites() *faultinject.Injector {
	return faultinject.New(faultinject.Plan{
		Ranges: []faultinject.RangeFault{{Lo: 0, Hi: 1 << 50, Class: faultinject.Persistent, Writes: true}},
	})
}

// A compaction that cannot write its output must leave every input
// installed and no partial output behind. It used to ignore the failed
// table, install nothing in its place and remove all inputs.
func TestCompactionWriteFaultKeepsInputs(t *testing.T) {
	db, tl, ref := faultDB(t)
	before := tableFiles(db)

	db.sys.Device().SetFaultInjector(failAllWrites())
	db.opt.DisableAutoCompact = false
	db.maybeCompact(tl)
	db.sys.Device().SetFaultInjector(nil)

	if s := db.Stats(); s.BackgroundErrors != 1 || s.CompactBytesWritten != 0 {
		t.Errorf("background errors %d, bytes written %d, want 1 and 0", s.BackgroundErrors, s.CompactBytesWritten)
	}
	if after := tableFiles(db); strings.Join(after, " ") != strings.Join(before, " ") {
		t.Errorf("table files changed:\n before %v\n after  %v", before, after)
	}
	checkAllReadable(t, db, tl, ref)
}

// A flush that fails must keep the immutable memtable: readable, and
// retried. It used to drop it, so acknowledged writes vanished from Get
// until a reopen replayed the log.
func TestFlushWriteFaultKeepsMemtable(t *testing.T) {
	sys := testSys(crossprefetch.OSOnly)
	tl := sys.Timeline()
	opt := Options{Sys: sys, MemtableBytes: 64 << 10, BlockBytes: 4 << 10}
	db, err := Open(tl, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[string][]byte)
	put := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			k, v := BenchKey(int64(i)), benchValue(int64(i), 200)
			if err := db.Put(tl, k, v); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		}
	}

	sys.Device().SetFaultInjector(failAllWrites())
	put(0, 100)
	if err := db.Flush(tl); err == nil {
		t.Fatal("Flush reported success over a device that fails every write")
	}
	checkAllReadable(t, db, tl, ref)
	// Writes go on, into the active memtable; filling it retries the
	// parked one, which fails again and stays.
	put(100, 700)
	if s := db.Stats(); s.Flushes != 0 || s.BackgroundErrors < 2 {
		t.Errorf("flushes %d, background errors %d, want 0 and at least 2", s.Flushes, s.BackgroundErrors)
	}
	if n := len(tableFiles(db)); n != 0 {
		t.Errorf("%d table files left behind by failed flushes", n)
	}
	checkAllReadable(t, db, tl, ref)

	sys.Device().SetFaultInjector(nil)
	if err := db.Flush(tl); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Flushes; got != 2 {
		t.Errorf("flushes %d, want 2: the parked memtable, then the active one", got)
	}
	checkAllReadable(t, db, tl, ref)

	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
	db, err = Open(tl, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkAllReadable(t, db, tl, ref)
}

// A scan that cannot read one block of one table must end with the device's
// error. It used to drop the rest of that table from the merge and finish
// as if complete: fewer keys than were acknowledged, and no error, where
// Get on the same block fails.
func TestIteratorReadFaultSurfacesError(t *testing.T) {
	db, tl, ref := faultDB(t)
	sys := db.sys
	tab := db.current.Load().levels[0][1]
	block := tab.index[len(tab.index)/2]
	ino, err := sys.FS().Open(tab.name)
	if err != nil {
		t.Fatal(err)
	}
	bs := sys.Config().BlockSize
	var plan faultinject.Plan
	for _, r := range ino.MapRange(block.off/bs, (block.off+block.size+bs-1)/bs) {
		plan.Ranges = append(plan.Ranges, faultinject.RangeFault{
			Lo: r.Phys * bs, Hi: (r.Phys + r.Count) * bs, Class: faultinject.Persistent, Reads: true,
		})
	}
	scan := func(reverse bool) (keys int, err error) {
		sys.DropAllCaches(tl) // the scan must go to the device
		it := db.NewIterator(tl, reverse)
		defer it.Close()
		for ok := it.seekEnd(); ok; ok = it.Next() {
			if !bytes.Equal(it.Value(), ref[it.Key()]) {
				t.Errorf("reverse=%v: key %s read stale or unknown", reverse, it.Key())
			}
			keys++
		}
		if it.Err() != nil && (it.Next() || it.seekEnd() || it.Seek(tab.smallest) || it.SeekBack(tab.largest)) {
			t.Errorf("reverse=%v: the iterator moved again after %v", reverse, it.Err())
		}
		return keys, it.Err()
	}
	for _, reverse := range []bool{false, true} {
		sys.Device().SetFaultInjector(faultinject.New(plan))
		keys, err := scan(reverse)
		sys.Device().SetFaultInjector(nil)
		if !errors.Is(err, blockdev.ErrInjected) {
			t.Errorf("reverse=%v: scan over a dead block returned %d of %d keys and Err() = %v, want the device error",
				reverse, keys, len(ref), err)
		}
		if keys, err := scan(reverse); err != nil || keys != len(ref) {
			t.Errorf("reverse=%v: with the fault gone the scan returned %d of %d keys, Err() = %v", reverse, keys, len(ref), err)
		}
	}
}

// A data block whose bytes do not decode is an error on every path that
// reads it: a point lookup, a forward and a reverse scan, and a compaction
// over its table. None may skip the block and answer without it. The
// newest L0 table's middle block gets an over-long key-length varint in
// place of its first entry (table files are never written again, so the
// bytes stay as the test leaves them).
func TestCorruptBlockFailsEveryReader(t *testing.T) {
	db, tl, _ := faultDB(t)
	tbl := db.current.Load().levels[0][0]
	bi := len(tbl.index) / 2
	ie := tbl.index[bi]
	tbl.file.Kernel().Inode().WriteAt(bytes.Repeat([]byte{0xff}, 16), ie.off)
	want := tbl.corruptBlock(bi).Error()
	check := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err %v, want %q", path, err, want)
		}
	}

	_, _, err := db.Get(tl, ie.firstKey)
	check("Get of the block's first key", err)

	for _, reverse := range []bool{false, true} {
		it := db.NewIterator(tl, reverse)
		ok, name := it.SeekFirst, "forward scan"
		if reverse {
			ok, name = it.SeekLast, "reverse scan"
		}
		n := 0
		for more := ok(); more; more = it.Next() {
			n++
		}
		check(fmt.Sprintf("%s (%d keys before it ended)", name, n), it.Err())
		it.Close()
	}

	check("compaction of L0", db.compactLevel(tl, 0))
	if got := db.TotalTables()[0]; got != 4 {
		t.Errorf("L0 holds %d tables after the failed compaction, want its 4 inputs", got)
	}
}
