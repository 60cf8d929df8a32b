// Package slab carves small objects out of a few large allocations.
//
// An owner that makes many objects of one type and frees them all at once
// (a memtable's nodes and values, a miner's table entries) takes them from
// a Slab instead of allocating each: blocks double in length between two
// bounds, so n objects cost O(log n) allocations until the upper bound and
// one per block after it. A carved object keeps its whole block alive, so
// a Slab suits objects that die together. An owner that dies often and
// knows when nothing it handed out is referenced any more (a flushed
// memtable) can Release its blocks to Spares, where the next owner's Slab
// takes them before it allocates.
package slab

// Slab is the unused tail of the newest block. The zero value is ready.
// Not synchronized.
type Slab[T any] struct {
	free []T
	// size is the length the newest block was planned at; the next one
	// doubles it. The exhausted tail cannot supply it: its cap is zero
	// once the last element is carved.
	size int
	// spares, once Recycle has set it, supplies blocks before Take
	// allocates, and blocks lists every block carved from since, for
	// Release to hand back.
	spares *Spares[T]
	blocks [][]T
}

// Recycle makes s take its blocks from sp before it allocates one, and
// lets Release give them back to sp.
func (s *Slab[T]) Recycle(sp *Spares[T]) { s.spares = sp }

// Take returns n zeroed elements, capped at length n so that an append to
// them cannot reach a neighbour. When the tail is too short, a new block
// replaces it: a spare one of at least n elements if s recycles, else
// twice the last block's length, raised to lo, then capped at hi, and
// never shorter than n. What was left of the old tail is not used again.
func (s *Slab[T]) Take(n, lo, hi int) []T {
	if n > len(s.free) {
		s.size = min(max(2*s.size, lo), hi)
		var b []T
		if s.spares != nil {
			if b = s.spares.get(n); b != nil {
				s.size = max(s.size, min(len(b), hi))
			}
		}
		if b == nil {
			b = make([]T, max(s.size, n))
		}
		if s.spares != nil {
			s.blocks = append(s.blocks, b)
		}
		s.free = b
	}
	r := s.free[:n:n]
	s.free = s.free[n:]
	return r
}

// Release hands every block s has carved from to its Spares and empties
// s. The caller guarantees that nothing Take returned is used again: the
// next Slab to take a block clears it and hands it out anew. Without
// Recycle it only empties s.
func (s *Slab[T]) Release() {
	if s.spares != nil && len(s.blocks) > 0 {
		s.spares.put(s.blocks)
	}
	s.free, s.size, s.blocks = nil, 0, nil
}
