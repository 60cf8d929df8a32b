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
// file data, not one per block. The rest is the mapping and the chunk
// table, which double as the file grows: nine and six times here. The
// fewest of three runs counts, so that a runtime object allocated while
// one runs (a garbage collection's workers) does not.
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
