package bitmap

import "math/bits"

// Window is a reusable snapshot of the bits of one window [Lo, Hi) of a
// larger bitmap: the selective export readahead_info fills for CROSS-LIB
// (§4.4). It stores only the words the window covers, so its size follows
// the window and not the window's offset in the file, and refilling it
// reuses those words. Bits outside the window read as clear. The zero
// value is an empty window.
type Window struct {
	lo, hi int64
	base   int // index, in the source bitmap, of words[0]
	words  []uint64
}

// Lo and Hi report the window's bounds.
func (w *Window) Lo() int64 { return w.lo }
func (w *Window) Hi() int64 { return w.hi }

func (w *Window) view() wordsView { return wordsView{words: w.words, base: w.base} }

// Test reports whether block i is set. Blocks outside the window are unset.
func (w *Window) Test(i int64) bool {
	if i < w.lo || i >= w.hi {
		return false
	}
	return w.words[int(i/wordBits)-w.base]&(1<<(uint(i)%wordBits)) != 0
}

// Count reports how many bits of the window are set.
func (w *Window) Count() int64 { return w.CountRange(w.lo, w.hi) }

// CountRange reports how many bits in [lo, hi) are set.
func (w *Window) CountRange(lo, hi int64) int64 {
	lo, hi = max(lo, w.lo), min(hi, w.hi)
	if hi <= lo {
		return 0
	}
	v := w.view()
	var n int64
	for i := lo / wordBits; i <= (hi-1)/wordBits; i++ {
		n += int64(bits.OnesCount64(v.load(int(i)) & wordMask(lo, hi, i)))
	}
	return n
}

// AppendPresentRuns appends the maximal runs of set bits within [lo, hi)
// to dst and returns the extended slice.
func (w *Window) AppendPresentRuns(dst []Run, lo, hi int64) []Run {
	return appendRuns(dst, w.PresentIter(lo, hi))
}

// PresentIter returns an allocation-free iterator over the maximal runs of
// set bits within [lo, hi).
func (w *Window) PresentIter(lo, hi int64) RunIter {
	return newRunIter(w.view(), lo, hi, true)
}

// CopyWindow makes dst a snapshot of blocks [lo, hi) of b, reusing dst's
// storage, and returns the number of words copied.
func (b *Bitmap) CopyWindow(dst *Window, lo, hi int64) int {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		*dst = Window{words: dst.words[:0]}
		return 0
	}
	v := b.view()
	loW, hiW := int(lo/wordBits), int((hi-1)/wordBits)
	n := hiW - loW + 1
	if cap(dst.words) < n {
		dst.words = make([]uint64, n)
	}
	dst.lo, dst.hi, dst.base, dst.words = lo, hi, loW, dst.words[:n]
	for w := loW; w <= hiW; w++ {
		dst.words[w-loW] = v.load(w) & wordMask(lo, hi, int64(w))
	}
	return n
}
