// Package slab carves small objects out of a few large allocations.
//
// An owner that makes many objects of one type and frees them all at once
// (a memtable's nodes and values, a miner's table entries) takes them from
// a Slab instead of allocating each: blocks double in length between two
// bounds, so n objects cost O(log n) allocations until the upper bound and
// one per block after it. A carved object keeps its whole block alive, so
// a Slab suits objects that die together.
package slab

// Slab is the unused tail of the newest block. The zero value is ready.
// Not synchronized.
type Slab[T any] struct {
	free []T
	// size is the length the newest block was planned at; the next one
	// doubles it. The exhausted tail cannot supply it: its cap is zero
	// once the last element is carved.
	size int
}

// Take returns n zeroed elements, capped at length n so that an append to
// them cannot reach a neighbour. When the tail is too short, a new block
// replaces it: twice the last block's length, raised to lo, then capped
// at hi, and never shorter than n. What was left of the old tail is not
// used again.
func (s *Slab[T]) Take(n, lo, hi int) []T {
	if n > len(s.free) {
		s.size = min(max(2*s.size, lo), hi)
		s.free = make([]T, max(s.size, n))
	}
	r := s.free[:n:n]
	s.free = s.free[n:]
	return r
}
