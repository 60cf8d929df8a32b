package bitmap

import (
	"math/bits"
	"sync/atomic"
)

// wordsView abstracts a []uint64 bit store whose words may require atomic
// loads (Shared's published slice, read concurrently with a writer) or
// plain loads (an unshared Bitmap, a Window). words[0] is word number base
// of the bitmap; indices outside the slice read as zero.
type wordsView struct {
	words  []uint64
	base   int
	shared bool
}

func (v wordsView) load(w int) uint64 {
	w -= v.base
	if w < 0 || w >= len(v.words) {
		return 0
	}
	if v.shared {
		return atomic.LoadUint64(&v.words[w])
	}
	return v.words[w]
}

// RunIter yields the maximal runs of equal-valued bits in a window one at
// a time, scanning whole words with bits.TrailingZeros64 and allocating
// nothing. The zero value is an exhausted iterator.
//
// Contract. Every run is non-empty and runs come in ascending order without
// overlap: Lo < Hi and Lo >= the previous run's Hi. Over a bitmap nobody is
// writing, runs are maximal, so Lo > the previous Hi. Over a Shared bitmap
// with a concurrent writer each word is read once, atomically, but a run
// that ended because bit e had the other value may be followed by a run
// starting at e if the writer flipped e in between: consecutive runs may
// ABUT (Lo == previous Hi). A caller that turns runs into device commands
// must coalesce abutting runs, as appendRuns (and so every Append*Runs /
// *Runs method) does.
type RunIter struct {
	v    wordsView
	pos  int64
	hi   int64
	want bool // true: runs of set bits, false: runs of clear bits
}

func newRunIter(v wordsView, lo, hi int64, want bool) RunIter {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	return RunIter{v: v, pos: lo, hi: hi, want: want}
}

// Next returns the next run, or ok=false when the window is exhausted.
func (it *RunIter) Next() (r Run, ok bool) {
	start := it.seek(it.pos, it.want)
	if start >= it.hi {
		it.pos = it.hi
		return Run{}, false
	}
	end := it.seek(start+1, !it.want)
	if end > it.hi {
		end = it.hi
	}
	it.pos = end
	return Run{start, end}, true
}

// seek returns the first index in [i, hi) whose bit equals set, or hi.
func (it *RunIter) seek(i int64, set bool) int64 {
	for i < it.hi {
		w := int(i / wordBits)
		x := it.v.load(w)
		if !set {
			x = ^x
		}
		x &= ^uint64(0) << (uint(i) % wordBits)
		if x != 0 {
			return int64(w)*wordBits + int64(bits.TrailingZeros64(x))
		}
		i = int64(w+1) * wordBits
	}
	return it.hi
}

// appendRuns drains it into dst, coalescing runs that abut (see the
// RunIter contract), so the appended runs are strictly separated even
// under a concurrent writer. Runs already in dst are left alone.
func appendRuns(dst []Run, it RunIter) []Run {
	base := len(dst)
	for {
		r, ok := it.Next()
		if !ok {
			return dst
		}
		if n := len(dst); n > base && dst[n-1].Hi == r.Lo {
			dst[n-1].Hi = r.Hi
			continue
		}
		dst = append(dst, r)
	}
}
