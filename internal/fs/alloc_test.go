package fs

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/simtime"
)

// Appending a megabyte in 16KB writes allocates one object per chunk of
// file data, not one per block. The rest is the chunk table, which
// doubles as the file grows, six times here, and the block map's one
// group. The fewest of three runs counts, so that a runtime object
// allocated while one runs (a garbage collection's workers) does not.
func TestAppendAllocsPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const bs, total, write = 4096, 1 << 20, 16 << 10
	f := New(LayoutExtent, bs, simtime.DefaultCosts())
	data := make([]byte, write)
	got := uint64(math.MaxUint64)
	for run := 0; run < 3; run++ {
		ino, _ := f.Create(nil, fmt.Sprint(run))
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		for off := int64(0); off < total; off += write {
			ino.WriteAt(data, off)
		}
		runtime.ReadMemStats(&b)
		got = min(got, b.Mallocs-a.Mallocs)
	}
	chunks := uint64(total / (chunkBlocks * bs))
	if got > chunks+16 {
		t.Errorf("%d allocations to append 1MB, want at most %d: one per %dKB chunk and the growth of two tables", got, chunks+16, chunkBlocks*bs>>10)
	}
}

// fig6's writers put 16KB writes at random aligned offsets of a shared
// synthetic file. The heap those writes take may be at most twice what
// they wrote, chunk table included: the bound that sets chunkBlocks (a
// write alone in its chunk holds chunkBlocks blocks for the four it wrote).
func TestScatteredWritesAllocAtMostTwice(t *testing.T) {
	const bs, write, writes = 4096, 16 << 10, 1024
	f := New(LayoutExtent, bs, simtime.DefaultCosts())
	ino, err := f.CreateSynthetic(nil, "shared", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, write)
	rng := rand.New(rand.NewSource(6))
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < writes; i++ {
		ino.WriteAt(data, rng.Int63n(ino.Size()/write)*write)
	}
	runtime.GC()
	runtime.ReadMemStats(&b)
	held := float64(b.HeapAlloc) - float64(a.HeapAlloc)
	if ratio := held / (write * writes); ratio > 2 {
		t.Errorf("scattered 16KB writes hold %.2f× the bytes they wrote, bound 2", ratio)
	}
	runtime.KeepAlive(ino)
}

// A block map costs a group per 2MB, not 8 bytes per block: a 64GB
// synthetic file's map holds at most 2MB of heap, where a flat map held
// 128MB. A 1MB append to a fresh file in 16KB writes keeps its group
// linear, and the map allocates once, for that group.
func TestSyntheticMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const bs = 4096
	f := New(LayoutExtent, bs, simtime.DefaultCosts())
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	ino, err := f.CreateSynthetic(nil, "big", 64<<30)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&b)
	if held := int64(b.HeapAlloc) - int64(a.HeapAlloc); held > 2<<20 {
		t.Errorf("a 64GB synthetic file holds %d bytes of heap, bound %d", held, 2<<20)
	}
	runtime.KeepAlive(ino)

	var m blockMap
	got := uint64(math.MaxUint64)
	for run := 0; run < 3; run++ {
		m = nil
		runtime.ReadMemStats(&a)
		for blk := int64(0); blk < (1<<20)/bs; blk += 4 {
			m.set(blk, f.allocRun(4), 4)
		}
		runtime.ReadMemStats(&b)
		got = min(got, b.Mallocs-a.Mallocs)
	}
	if len(m) != 1 {
		t.Fatalf("a 1MB append left %d groups, want 1", len(m))
	}
	if got != 1 || m[0].phys != nil {
		t.Errorf("a 1MB append: %d map allocations, explicit %v; want 1, linear", got, m[0].phys != nil)
	}
	app, _ := f.Create(nil, "append")
	data := make([]byte, 16<<10)
	for off := int64(0); off < 1<<20; off += int64(len(data)) {
		app.WriteAt(data, off)
	}
	if len(app.blocks) != 1 {
		t.Fatalf("a 1MB append through WriteAt left %d groups, want 1", len(app.blocks))
	}
	if app.blocks[0].phys != nil {
		t.Errorf("a 1MB append through WriteAt made its group explicit, want linear")
	}
}
