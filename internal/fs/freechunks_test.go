//go:build go1.24

package fs

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/simtime"
)

// A file written after another was removed takes the removed file's
// chunks. With the collector off, rewriting the megabyte that
// TestAppendAllocsPerChunk appends allocates only the growth of the new
// file's mapping and chunk table: no chunk.
func TestRewriteAfterRemoveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const bs, total, write = 4096, 1 << 20, 16 << 10
	f := New(LayoutExtent, bs, simtime.DefaultCosts())
	data := make([]byte, write)
	appendMB := func(ino *Inode) {
		for off := int64(0); off < total; off += write {
			ino.WriteAt(data, off)
		}
	}
	var got uint64
	withoutGC(func() {
		old, _ := f.Create(nil, "old")
		appendMB(old)
		if err := f.Remove(nil, "old"); err != nil {
			t.Fatal(err)
		}
		ino, _ := f.Create(nil, "new")
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		appendMB(ino)
		runtime.ReadMemStats(&b)
		got = b.Mallocs - a.Mallocs
	})
	if got > 16 {
		t.Errorf("%d allocations to rewrite 1MB after removing 1MB, want at most 16: the growth of two tables, no %dKB chunk", got, chunkBlocks*bs>>10)
	}
}

// The free list holds its chunks weakly. Ten thousand removed files leave
// ten thousand entries; a collection frees their bytes though the list
// still names them, and the next remove finds the oldest entry dead and
// drops every dead one, leaving its own chunk alone on the list.
func TestFreeListEmptiedByCollection(t *testing.T) {
	const bs, files = 64, 10_000 // one 512-byte chunk a file
	f := New(LayoutExtent, bs, simtime.DefaultCosts())
	data := make([]byte, bs)
	for i := 0; i <= files; i++ {
		ino, err := f.Create(nil, strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		ino.WriteAt(data, 0)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	withoutGC(func() {
		for i := 0; i < files; i++ {
			if err := f.Remove(nil, strconv.Itoa(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n := len(f.free.list); n != files {
		t.Fatalf("%d entries after %d removes with the collector off, want %d", n, files, files)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if freed := int64(before.HeapAlloc) - int64(after.HeapAlloc); freed < files*chunkBlocks*bs/2 {
		t.Errorf("a collection freed %d bytes of %d files' %d-byte chunks: the free list keeps them alive", freed, files, chunkBlocks*bs)
	}
	if err := f.Remove(nil, strconv.Itoa(files)); err != nil {
		t.Fatal(err)
	}
	if n := len(f.free.list); n != 1 {
		t.Errorf("%d entries after a collection and one remove, want 1", n)
	}
}

// Writers fill files of their own, read them back, truncate and refill
// them, and hand each one to removers that delete it while its writer reads
// it once more: chunks cross from removed and truncated files to other
// goroutines' writes through the free list. Under -race this pins the lock
// order (the inode's lock, then the list's) and that no reader sees a
// chunk after its inode gave it away: a read returns the file whole or,
// once it is removed, nothing.
func TestConcurrentWriteRemoveReuse(t *testing.T) {
	const writers, files, size, write = 4, 30, 3*chunkBlocks*4096 + 1000, 5000
	f := newTestFS(LayoutExtent)
	handoff := make(chan *Inode)
	var removers sync.WaitGroup
	for r := 0; r < 2; r++ {
		removers.Add(1)
		go func() {
			defer removers.Done()
			for ino := range handoff {
				if err := f.Remove(nil, ino.Name()); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := make([]byte, size)
			fill := func(ino *Inode, want []byte, from int) {
				for off := from; off < size; off += write {
					ino.WriteAt(want[off:min(off+write, size)], int64(off))
				}
			}
			for i := 0; i < files; i++ {
				ino, err := f.Create(nil, fmt.Sprintf("w%d-%d", w, i))
				if err != nil {
					t.Error(err)
					return
				}
				want := bytes.Repeat([]byte{byte(w*files + i + 1)}, size)
				fill(ino, want, 0)
				ino.Truncate(nil, size/3)
				fill(ino, want, size/3)
				if n := ino.ReadAt(got, 0); n != size || !bytes.Equal(got, want) {
					t.Errorf("%s: read %d bytes, want %d of %#x", ino.Name(), n, size, want[0])
				}
				handoff <- ino
				if n := ino.ReadAt(got, 0); n != 0 && (n != size || !bytes.Equal(got, want)) {
					t.Errorf("%s while removed: read %d bytes, want none or %d of %#x", ino.Name(), n, size, want[0])
				}
			}
		}(w)
	}
	wg.Wait()
	close(handoff)
	removers.Wait()
}
