//go:build go1.24

package slab

import (
	"slices"
	"unsafe"
	"weak"
)

// Spares holds the blocks of released Slabs for the next Take that needs
// one. It holds them weakly, one handle per released Slab: a collection
// frees whatever is on it, so it keeps no heap alive and needs no
// capacity, and how long a block waits is the collector's call (DESIGN
// §10, "Freed chunks", is the same rule for file data). The zero value is
// ready. Not synchronized: the Slabs that share it are serialized by their
// owner.
type Spares[T any] struct {
	batches []batch[T] // oldest first
}

// batch is the block list of one released Slab: blocks[:n] may still be
// taken.
type batch[T any] struct {
	blocks weak.Pointer[[]T] // &blocks[0]
	n      int
}

// put takes over blocks, the block list of a released Slab. When the
// oldest batch is dead a collection has run since it was put, so the dead
// batches are dropped first: the list never outgrows the Slabs released
// since the collection before last.
func (sp *Spares[T]) put(blocks [][]T) {
	if len(sp.batches) > 0 && sp.batches[0].blocks.Value() == nil {
		sp.batches = slices.DeleteFunc(sp.batches, func(b batch[T]) bool { return b.blocks.Value() == nil })
	}
	sp.batches = append(sp.batches, batch[T]{weak.Make(&blocks[0]), len(blocks)})
}

// get returns a cleared spare block of at least n elements, the newest
// first, or nil when there is none. A spare shorter than n is dropped on
// the way.
func (sp *Spares[T]) get(n int) []T {
	for len(sp.batches) > 0 {
		last := &sp.batches[len(sp.batches)-1]
		if p := last.blocks.Value(); p != nil {
			blocks := unsafe.Slice(p, last.n)
			for last.n > 0 {
				last.n--
				b := blocks[last.n]
				blocks[last.n] = nil
				if len(b) >= n {
					clear(b)
					return b
				}
			}
		}
		sp.batches = sp.batches[:len(sp.batches)-1]
	}
	return nil
}
