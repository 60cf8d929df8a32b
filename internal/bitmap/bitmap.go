// Package bitmap implements the dynamically sized block bitmaps
// CrossPrefetch keeps per inode. Each bit records whether one file block
// is resident in the page cache; the bitmap is stored as an array of
// uint64 words that grows and shrinks with the file (paper §4.4).
//
// Bitmap itself is not synchronized: in the simulated kernel it is guarded
// by the page cache's lock (its virtual cost is the bitmap rw-lock ledger,
// the "fast path"), in CROSS-LIB by the range tree's per-node locks.
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a growable bitmap over block indices starting at 0.
type Bitmap struct {
	words []uint64
	set   int64 // population count, maintained incrementally
}

// New returns a bitmap sized for at least n blocks.
func New(n int64) *Bitmap {
	if n < 0 {
		n = 0
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

func (b *Bitmap) view() wordsView { return wordsView{words: b.words} }

// Len reports the bitmap's capacity in blocks.
func (b *Bitmap) Len() int64 { return int64(len(b.words)) * wordBits }

// Count reports how many bits are set.
func (b *Bitmap) Count() int64 { return b.set }

// grow ensures the bitmap covers block index i.
func (b *Bitmap) grow(i int64) {
	w := int(i / wordBits)
	if w < len(b.words) {
		return
	}
	nw := len(b.words)*2 + 1
	if nw <= w {
		nw = w + 1
	}
	words := make([]uint64, nw)
	copy(words, b.words)
	b.words = words
}

// Test reports whether block i is set. Out-of-range blocks are unset.
func (b *Bitmap) Test(i int64) bool {
	if i < 0 {
		return false
	}
	w := int(i / wordBits)
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets block i, growing as needed. It reports whether the bit was
// previously clear.
func (b *Bitmap) Set(i int64) bool {
	if i < 0 {
		return false
	}
	b.grow(i)
	w, m := int(i/wordBits), uint64(1)<<(uint(i)%wordBits)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.set++
	return true
}

// Clear clears block i. It reports whether the bit was previously set.
func (b *Bitmap) Clear(i int64) bool {
	if i < 0 {
		return false
	}
	w := int(i / wordBits)
	if w >= len(b.words) {
		return false
	}
	m := uint64(1) << (uint(i) % wordBits)
	if b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.set--
	return true
}

// SetRange sets blocks [lo, hi) and returns how many transitioned 0→1.
func (b *Bitmap) SetRange(lo, hi int64) int64 {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return 0
	}
	b.grow(hi - 1)
	var flipped int64
	for w := lo / wordBits; w <= (hi-1)/wordBits; w++ {
		mask := wordMask(lo, hi, w)
		old := b.words[w]
		b.words[w] |= mask
		flipped += int64(bits.OnesCount64(b.words[w] &^ old))
	}
	b.set += flipped
	return flipped
}

// ClearRange clears blocks [lo, hi) and returns how many transitioned 1→0.
func (b *Bitmap) ClearRange(lo, hi int64) int64 {
	if lo < 0 {
		lo = 0
	}
	if max := b.Len(); hi > max {
		hi = max
	}
	if hi <= lo {
		return 0
	}
	var flipped int64
	for w := lo / wordBits; w <= (hi-1)/wordBits; w++ {
		mask := wordMask(lo, hi, w)
		cleared := b.words[w] & mask
		b.words[w] &^= mask
		flipped += int64(bits.OnesCount64(cleared))
	}
	b.set -= flipped
	return flipped
}

// wordMask returns the mask of bits in word w that fall inside [lo, hi).
func wordMask(lo, hi, w int64) uint64 {
	mask := ^uint64(0)
	wlo, whi := w*wordBits, (w+1)*wordBits
	if lo > wlo {
		mask &= ^uint64(0) << uint(lo-wlo)
	}
	if hi < whi {
		mask &= ^uint64(0) >> uint(whi-hi)
	}
	return mask
}

// CountRange reports how many bits in [lo, hi) are set.
func (b *Bitmap) CountRange(lo, hi int64) int64 {
	if lo < 0 {
		lo = 0
	}
	if max := b.Len(); hi > max {
		hi = max
	}
	if hi <= lo {
		return 0
	}
	var n int64
	for w := lo / wordBits; w <= (hi-1)/wordBits; w++ {
		n += int64(bits.OnesCount64(b.words[w] & wordMask(lo, hi, w)))
	}
	return n
}

// Run is a half-open range of block indices [Lo, Hi).
type Run struct {
	Lo, Hi int64
}

// Blocks reports the number of blocks the run covers.
func (r Run) Blocks() int64 { return r.Hi - r.Lo }

// String formats the run.
func (r Run) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// MissingRuns returns the maximal runs of clear bits within [lo, hi).
// This is the core query behind readahead_info: "which blocks of the
// requested window still need fetching?"
func (b *Bitmap) MissingRuns(lo, hi int64) []Run { return b.AppendMissingRuns(nil, lo, hi) }

// AppendMissingRuns appends the maximal runs of clear bits within [lo, hi)
// to dst and returns the extended slice (allocation-free when dst has
// capacity).
func (b *Bitmap) AppendMissingRuns(dst []Run, lo, hi int64) []Run {
	return appendRuns(dst, b.MissingIter(lo, hi))
}

// MissingIter returns an allocation-free iterator over the maximal runs of
// clear bits within [lo, hi).
func (b *Bitmap) MissingIter(lo, hi int64) RunIter {
	return newRunIter(b.view(), lo, hi, false)
}

// PresentRuns returns the maximal runs of set bits within [lo, hi).
func (b *Bitmap) PresentRuns(lo, hi int64) []Run { return b.AppendPresentRuns(nil, lo, hi) }

// AppendPresentRuns appends the maximal runs of set bits within [lo, hi)
// to dst and returns the extended slice.
func (b *Bitmap) AppendPresentRuns(dst []Run, lo, hi int64) []Run {
	return appendRuns(dst, b.PresentIter(lo, hi))
}

// PresentIter returns an allocation-free iterator over the maximal runs of
// set bits within [lo, hi).
func (b *Bitmap) PresentIter(lo, hi int64) RunIter {
	return newRunIter(b.view(), lo, hi, true)
}

// NextClear returns the first clear bit at or after i, or hi if none
// before hi.
func (b *Bitmap) NextClear(i, hi int64) int64 {
	if i < 0 {
		i = 0
	}
	it := RunIter{v: b.view(), hi: hi}
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
func (b *Bitmap) TrimSet(lo, hi int64) (int64, int64) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return lo, hi
	}
	if lo = b.NextClear(lo, hi); lo == hi {
		return hi, hi
	}
	// Bit lo is clear, so the scan back from hi-1 stops at or above it.
	v := b.view()
	for i := hi - 1; ; {
		w := int(i / wordBits)
		// The clear bits of word w at or below bit i.
		if x := ^v.load(w) & (^uint64(0) >> (wordBits - 1 - uint(i)%wordBits)); x != 0 {
			return lo, int64(w)*wordBits + int64(bits.Len64(x))
		}
		i = int64(w)*wordBits - 1
	}
}

// NextClearInBoth returns the first index in [i, hi) clear in both b and
// o, or hi: one step of a word-wise scan of ^(b|o), the range tree's
// "neither cached nor requested". Either bitmap may be the shorter one.
func (b *Bitmap) NextClearInBoth(o *Bitmap, i, hi int64) int64 {
	return seekUnion(b.words, o.words, i, hi, false)
}

// NextSetInEither returns the first index in [i, hi) set in b or in o, or
// hi.
func (b *Bitmap) NextSetInEither(o *Bitmap, i, hi int64) int64 {
	return seekUnion(b.words, o.words, i, hi, true)
}

// seekUnion returns the first index in [i, hi) whose bit in p|q equals
// set, or hi. Words past a slice's end read as zero.
func seekUnion(p, q []uint64, i, hi int64, set bool) int64 {
	if i < 0 {
		i = 0
	}
	if len(p) < len(q) {
		p, q = q, p
	}
	for i < hi {
		w := int(i / wordBits)
		if w >= len(p) { // all clear from here on
			if set {
				return hi
			}
			return i
		}
		x := p[w]
		if w < len(q) {
			x |= q[w]
		}
		if !set {
			x = ^x
		}
		x &= ^uint64(0) << (uint(i) % wordBits)
		if x != 0 {
			return min(int64(w)*wordBits+int64(bits.TrailingZeros64(x)), hi)
		}
		i = int64(w+1) * wordBits
	}
	return hi
}

// CopyRange copies the words covering blocks [lo, hi) into dst, growing
// dst as needed, and returns the number of words copied. This models the
// selective bitmap export from CROSS-OS to CROSS-LIB (paper §4.4:
// "CROSS-LIB can specify offset and range values for selective copying").
func (b *Bitmap) CopyRange(dst *Bitmap, lo, hi int64) int {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return 0
	}
	dst.grow(hi - 1)
	if w := int((hi - 1) / wordBits); w >= len(b.words) {
		b.grow(hi - 1)
	}
	loW, hiW := int(lo/wordBits), int((hi-1)/wordBits)
	for w := loW; w <= hiW; w++ {
		old := dst.words[w]
		nw := b.words[w]
		// Preserve dst bits outside [lo,hi).
		mask := wordMask(lo, hi, int64(w))
		merged := (old &^ mask) | (nw & mask)
		dst.set += int64(bits.OnesCount64(merged)) - int64(bits.OnesCount64(old))
		dst.words[w] = merged
	}
	return hiW - loW + 1
}

// Shrink truncates the bitmap to cover at most n blocks, clearing any
// bits at or beyond n (file truncation).
func (b *Bitmap) Shrink(n int64) {
	if n < 0 {
		n = 0
	}
	b.ClearRange(n, b.Len())
	nw := int((n + wordBits - 1) / wordBits)
	if nw < len(b.words) {
		b.words = b.words[:nw]
	}
}
