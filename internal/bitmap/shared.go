package bitmap

import (
	"math/bits"
	"sync/atomic"
)

// Shared is a bitmap whose readers never take a lock: queries load words
// with atomic operations from a slice published by an atomic pointer
// store, so cache-state questions (population count, missing runs, span)
// proceed while a writer is mid-update. Writers must be serialized
// externally — in the page cache that serializer is the FileCache
// page-index mutex, which the paper's delineation argument says readers
// of the bitmap must NOT have to touch (§4.4).
//
// Consistency model: each word is read atomically, so a point query is
// exact; a multi-word range query may interleave with a concurrent write
// and observe some words before and some after it. That is the same
// guarantee the kernel's lockless bitmap probes give, and the virtual
// cost model is unaffected — the RWLedger charges still model the paper's
// bitmap rw-lock; Shared only changes the host implementation.
type Shared struct {
	words atomic.Pointer[[]uint64]
	set   atomic.Int64
}

func (s *Shared) loadWords() []uint64 {
	if p := s.words.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *Shared) view() wordsView { return wordsView{words: s.loadWords(), shared: true} }

// Len reports the bitmap's capacity in blocks.
func (s *Shared) Len() int64 { return int64(len(s.loadWords())) * wordBits }

// Count reports how many bits are set.
func (s *Shared) Count() int64 { return s.set.Load() }

// Test reports whether block i is set. Out-of-range blocks are unset.
func (s *Shared) Test(i int64) bool {
	if i < 0 {
		return false
	}
	return s.view().load(int(i/wordBits))&(1<<(uint(i)%wordBits)) != 0
}

// grow ensures coverage of block i, republishing a larger slice if needed.
// Readers holding the old slice keep seeing a valid (shorter) bitmap.
// Writer-only.
func (s *Shared) grow(i int64) []uint64 {
	w := int(i / wordBits)
	words := s.loadWords()
	if w < len(words) {
		return words
	}
	nw := len(words)*2 + 1
	if nw <= w {
		nw = w + 1
	}
	fresh := make([]uint64, nw)
	copy(fresh, words)
	s.words.Store(&fresh)
	return fresh
}

// Set sets block i, growing as needed, and reports whether the bit was
// previously clear. Writer-only.
func (s *Shared) Set(i int64) bool {
	if i < 0 {
		return false
	}
	words := s.grow(i)
	w, m := int(i/wordBits), uint64(1)<<(uint(i)%wordBits)
	old := words[w]
	if old&m != 0 {
		return false
	}
	atomic.StoreUint64(&words[w], old|m)
	s.set.Add(1)
	return true
}

// Clear clears block i and reports whether the bit was previously set.
// Writer-only.
func (s *Shared) Clear(i int64) bool {
	if i < 0 {
		return false
	}
	words := s.loadWords()
	w := int(i / wordBits)
	if w >= len(words) {
		return false
	}
	m := uint64(1) << (uint(i) % wordBits)
	old := words[w]
	if old&m == 0 {
		return false
	}
	atomic.StoreUint64(&words[w], old&^m)
	s.set.Add(-1)
	return true
}

// SetRange sets blocks [lo, hi) and returns how many transitioned 0→1.
// Writer-only.
func (s *Shared) SetRange(lo, hi int64) int64 {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return 0
	}
	words := s.grow(hi - 1)
	var flipped int64
	for w := lo / wordBits; w <= (hi-1)/wordBits; w++ {
		mask := wordMask(lo, hi, w)
		old := words[w]
		if next := old | mask; next != old {
			atomic.StoreUint64(&words[w], next)
			flipped += int64(bits.OnesCount64(next &^ old))
		}
	}
	if flipped != 0 {
		s.set.Add(flipped)
	}
	return flipped
}

// ClearRange clears blocks [lo, hi) and returns how many transitioned 1→0.
// Writer-only.
func (s *Shared) ClearRange(lo, hi int64) int64 {
	if lo < 0 {
		lo = 0
	}
	words := s.loadWords()
	if max := int64(len(words)) * wordBits; hi > max {
		hi = max
	}
	if hi <= lo {
		return 0
	}
	var flipped int64
	for w := lo / wordBits; w <= (hi-1)/wordBits; w++ {
		mask := wordMask(lo, hi, w)
		old := words[w]
		if cleared := old & mask; cleared != 0 {
			atomic.StoreUint64(&words[w], old&^mask)
			flipped += int64(bits.OnesCount64(cleared))
		}
	}
	if flipped != 0 {
		s.set.Add(-flipped)
	}
	return flipped
}

// CountRange reports how many bits in [lo, hi) are set.
func (s *Shared) CountRange(lo, hi int64) int64 {
	if lo < 0 {
		lo = 0
	}
	v := s.view()
	if max := int64(len(v.words)) * wordBits; hi > max {
		hi = max
	}
	if hi <= lo {
		return 0
	}
	var n int64
	for w := lo / wordBits; w <= (hi-1)/wordBits; w++ {
		n += int64(bits.OnesCount64(v.load(int(w)) & wordMask(lo, hi, w)))
	}
	return n
}

// NextClear returns the first clear bit at or after i, or hi if none
// before hi.
func (s *Shared) NextClear(i, hi int64) int64 {
	if i < 0 {
		i = 0
	}
	it := RunIter{v: s.view(), hi: hi}
	if c := it.seek(i, false); c < hi {
		return c
	}
	return hi
}

// TrimSet trims [lo, hi) to its outermost clear bits, a word at a time:
// it returns the first clear bit at or after lo and one past the last
// clear bit before hi, or (hi, hi) when every bit in between is set.
// Interior set bits are not split out. A window with hi <= lo comes back
// as it went in, with lo raised to 0.
func (s *Shared) TrimSet(lo, hi int64) (int64, int64) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return lo, hi
	}
	if lo = s.NextClear(lo, hi); lo == hi {
		return hi, hi
	}
	v := s.view()
	for i := hi - 1; i >= lo; {
		w := int(i / wordBits)
		// The clear bits of word w at or below bit i.
		if x := ^v.load(w) & (^uint64(0) >> (wordBits - 1 - uint(i)%wordBits)); x != 0 {
			if end := int64(w)*wordBits + int64(bits.Len64(x)); end > lo {
				return lo, end
			}
			break
		}
		i = int64(w)*wordBits - 1
	}
	// A writer set lo's bit since it read as clear.
	return lo, lo
}

// MissingRuns returns the maximal runs of clear bits within [lo, hi).
func (s *Shared) MissingRuns(lo, hi int64) []Run { return s.AppendMissingRuns(nil, lo, hi) }

// AppendMissingRuns appends the maximal runs of clear bits within [lo, hi)
// to dst and returns the extended slice (allocation-free when dst has
// capacity).
func (s *Shared) AppendMissingRuns(dst []Run, lo, hi int64) []Run {
	return appendRuns(dst, s.MissingIter(lo, hi))
}

// MissingIter returns an allocation-free iterator over the maximal runs of
// clear bits within [lo, hi).
func (s *Shared) MissingIter(lo, hi int64) RunIter {
	return newRunIter(s.view(), lo, hi, false)
}

// PresentRuns returns the maximal runs of set bits within [lo, hi).
func (s *Shared) PresentRuns(lo, hi int64) []Run { return s.AppendPresentRuns(nil, lo, hi) }

// AppendPresentRuns appends the maximal runs of set bits within [lo, hi)
// to dst and returns the extended slice.
func (s *Shared) AppendPresentRuns(dst []Run, lo, hi int64) []Run {
	return appendRuns(dst, s.PresentIter(lo, hi))
}

// PresentIter returns an allocation-free iterator over the maximal runs of
// set bits within [lo, hi).
func (s *Shared) PresentIter(lo, hi int64) RunIter {
	return newRunIter(s.view(), lo, hi, true)
}

// Shrink truncates the bitmap to cover at most n blocks, clearing any bits
// at or beyond n (file truncation). Writer-only.
func (s *Shared) Shrink(n int64) {
	if n < 0 {
		n = 0
	}
	s.ClearRange(n, s.Len())
	words := s.loadWords()
	nw := int((n + wordBits - 1) / wordBits)
	if nw < len(words) {
		trimmed := words[:nw]
		s.words.Store(&trimmed)
	}
}
