//go:build go1.24

package slab

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// withoutGC runs fn with the collector off, so that no spare is collected
// while it runs.
func withoutGC(fn func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
}

// within reports whether e lies in block b.
func within[T any](e *T, b []T) bool {
	p, lo := uintptr(unsafe.Pointer(e)), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p < lo+uintptr(len(b))*unsafe.Sizeof(*e)
}

// A released slab's blocks carry the next slab, newest first, cleared: the
// second slab takes as many elements as the first without allocating a
// block, and every element it hands out is zero.
func TestReleasedBlocksCarryTheNextSlab(t *testing.T) {
	type node struct {
		next *node
		v    int
	}
	withoutGC(func() {
		var sp Spares[node]
		var a Slab[node]
		a.Recycle(&sp)
		var prev *node
		for i := 0; i < 300; i++ {
			n := &a.Take(1, 4, 64)[0]
			n.next, n.v = prev, i+1
			prev = n
		}
		blocks := append([][]node(nil), a.blocks...) // get empties the released list
		if len(blocks) == 0 {
			t.Fatal("a recycling slab lists no blocks")
		}
		a.Release()
		if a.free != nil || a.blocks != nil {
			t.Fatal("Release left the slab holding blocks")
		}
		var b Slab[node]
		b.Recycle(&sp)
		n := &b.Take(1, 4, 64)[0]
		if newest := blocks[len(blocks)-1]; !within(n, newest) {
			t.Fatal("the next slab's first element is not in the released slab's newest block")
		}
		for i := 1; i < 300; i++ {
			if *n != (node{}) {
				t.Fatalf("element %d of the next slab is %+v, want zero", i, *n)
			}
			n = &b.Take(1, 4, 64)[0]
		}
		for _, blk := range b.blocks {
			found := false
			for _, old := range blocks {
				found = found || unsafe.SliceData(blk) == unsafe.SliceData(old)
			}
			if !found {
				t.Fatalf("the next slab allocated a block of %d elements though %d released blocks were spare", len(blk), len(blocks))
			}
		}
	})
}

// A spare shorter than the elements asked for is dropped, not handed out;
// a slab that does not recycle releases nothing.
func TestShortSpareDropped(t *testing.T) {
	withoutGC(func() {
		var sp Spares[byte]
		var a Slab[byte]
		a.Recycle(&sp)
		a.Take(10, 16, 16)
		a.Release()
		var b Slab[byte]
		b.Recycle(&sp)
		if r := b.Take(32, 16, 64); len(r) != 32 || len(b.blocks) != 1 || len(b.blocks[0]) < 32 {
			t.Fatalf("Take(32) over a 16-byte spare: %d bytes from a block of %d", len(r), len(b.blocks[0]))
		}
		if len(sp.batches) != 0 {
			t.Fatalf("%d batches left after the only spare was too short", len(sp.batches))
		}
		var c Slab[byte]
		c.Take(10, 16, 16)
		c.Release()
		if len(sp.batches) != 0 || c.blocks != nil {
			t.Fatal("a slab without Recycle released its blocks")
		}
	})
}

// Spares hold their blocks weakly. A thousand released slabs leave a
// thousand batches; a collection frees their blocks though the list still
// names them, and the next release finds the oldest batch dead and drops
// every dead one, leaving its own alone.
func TestSparesEmptiedByCollection(t *testing.T) {
	const slabs, block = 1000, 4 << 10
	var sp Spares[byte]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	withoutGC(func() {
		for i := 0; i < slabs; i++ {
			var s Slab[byte]
			s.Recycle(&sp)
			s.Take(1, block, block)
			s.Release()
		}
	})
	if n := len(sp.batches); n != slabs {
		t.Fatalf("%d batches after %d releases with the collector off, want %d", n, slabs, slabs)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > slabs*block/2 {
		t.Errorf("%d bytes still held after a collection, of %d slabs' %d-byte blocks: the spares keep them alive", held, slabs, block)
	}
	var s Slab[byte]
	s.Recycle(&sp)
	s.Take(1, block, block)
	s.Release()
	if n := len(sp.batches); n != 1 {
		t.Errorf("%d batches after a collection and one release, want 1", n)
	}
}
