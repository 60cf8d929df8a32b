package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log2 buckets: bucket i counts samples v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds
// v <= 0. 64 buckets cover the full int64 range.
const histBuckets = 65

// Histogram is a lock-free log2-bucketed histogram. The zero value is
// ready to use; all methods are safe for concurrent callers.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	// maxP1 and minP1 store encodeP1(value) so that 0 means "unset"
	// while every real sample — including 0 and negatives — remains
	// representable (see encodeP1).
	maxP1 atomic.Int64
	minP1 atomic.Int64
}

// encodeP1 maps a sample to the min/max sentinel encoding: non-negative
// values shift up by one so a real 0 becomes 1, negative values map to
// themselves. The map is strictly monotone (order-preserving) and never
// produces 0, which stays reserved for "unset". Storing v+1
// unconditionally would collide v = -1 with the sentinel and silently
// corrupt min/max for non-positive samples.
func encodeP1(v int64) int64 {
	if v >= 0 {
		return v + 1
	}
	return v
}

// decodeP1 inverts encodeP1 for a non-sentinel stored value.
func decodeP1(e int64) int64 {
	if e > 0 {
		return e - 1
	}
	return e
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	e := encodeP1(v)
	for {
		cur := h.maxP1.Load()
		if cur != 0 && e <= cur {
			break
		}
		if h.maxP1.CompareAndSwap(cur, e) {
			break
		}
	}
	for {
		cur := h.minP1.Load()
		if cur != 0 && e >= cur {
			break
		}
		if h.minP1.CompareAndSwap(cur, e) {
			break
		}
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistogramSnapshot is an exportable view of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	// Buckets lists only the non-empty log2 buckets.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty log2 bucket: samples in [Lo, Hi).
type BucketCount struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Snapshot captures the histogram. Quantiles are upper bounds of the
// bucket the quantile falls in (log2 resolution).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	if v := h.minP1.Load(); v != 0 {
		s.Min = decodeP1(v)
	}
	if v := h.maxP1.Load(); v != 0 {
		s.Max = decodeP1(v)
	}
	var counts [histBuckets]int64
	for i := range counts {
		if counts[i] = h.buckets[i].Load(); counts[i] != 0 {
			lo, hi := bucketBounds(i)
			s.Buckets = append(s.Buckets, BucketCount{Lo: lo, Hi: hi, Count: counts[i]})
		}
	}
	s.P50, s.P99 = quantiles(&counts, s.Count)
	if s.P50 > s.Max {
		s.P50 = s.Max
	}
	if s.P99 > s.Max {
		s.P99 = s.Max
	}
	return s
}

// quantiles reports the p50 and p99 of total samples spread over log2
// buckets, each as the largest value of the bucket the quantile falls in.
func quantiles(counts *[histBuckets]int64, total int64) (p50, p99 int64) {
	var seen int64
	rank50, rank99 := total/2+1, total-total/100
	for i, n := range counts {
		if n == 0 {
			continue
		}
		_, hi := bucketBounds(i)
		if seen < rank50 && seen+n >= rank50 {
			p50 = hi - 1
		}
		if seen < rank99 && seen+n >= rank99 {
			p99 = hi - 1
		}
		seen += n
	}
	return p50, p99
}

// bucketBounds reports the value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	// Positive int64 samples have bits.Len64 <= 63, so the top bucket's
	// upper bound saturates at MaxInt64.
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1) << i
}
