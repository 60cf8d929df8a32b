package rangetree

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/simtime"
)

func BenchmarkNeedsPrefetch(b *testing.B) {
	tr := New(DefaultSpan, simtime.DefaultCosts())
	tr.MarkCached(nil, 0, 1<<18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo := int64(i*331) % (1 << 18)
		runs := tr.NeedsPrefetch(nil, lo, lo+64)
		for _, r := range runs {
			tr.ClearRequested(nil, r.Lo, r.Hi)
		}
	}
}

// BenchmarkNeedsPrefetchResident is the coverage query of a warm point
// read: a 1024-block window over a node whose every block is cached.
func BenchmarkNeedsPrefetchResident(b *testing.B) {
	tr := New(DefaultSpan, simtime.DefaultCosts())
	tr.MarkCached(nil, 0, DefaultSpan)
	tl := simtime.NewTimeline(0)
	var buf [4]bitmap.Run
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo := int64(i*331) % (DefaultSpan - 1024)
		if runs, _ := tr.AppendNeedsPrefetch(tl, buf[:0], lo, lo+1024); len(runs) != 0 {
			b.Fatal(runs)
		}
	}
}

// BenchmarkNeedsPrefetchSparse is the same window over a node with two
// blocks of every eight missing: 256 runs to find, claim and give back.
func BenchmarkNeedsPrefetchSparse(b *testing.B) {
	tr := New(DefaultSpan, simtime.DefaultCosts())
	for lo := int64(0); lo < DefaultSpan; lo += 8 {
		tr.MarkCached(nil, lo, lo+6)
	}
	tl := simtime.NewTimeline(0)
	var buf [256]bitmap.Run
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo := int64(i*331) % (DefaultSpan - 1024)
		runs, _ := tr.AppendNeedsPrefetch(tl, buf[:0], lo, lo+1024)
		for _, r := range runs {
			tr.ClearRequested(nil, r.Lo, r.Hi)
		}
	}
}

// BenchmarkMarkReadResident is the belief update of a warm point read: the
// four blocks it read, inside the full-node span its coverage query
// reported, marked as the read's mark does and as MarkCached does.
func BenchmarkMarkReadResident(b *testing.B) {
	tr := New(DefaultSpan, simtime.DefaultCosts())
	tr.MarkCached(nil, 0, DefaultSpan)
	tl := simtime.NewTimeline(0)
	_, full := tr.AppendNeedsPrefetch(tl, nil, 0, DefaultSpan)
	for _, c := range []struct {
		name string
		mark func(lo, hi int64)
	}{
		{"read", func(lo, hi int64) { tr.MarkRead(tl, lo, hi, full) }},
		{"cached", func(lo, hi int64) { tr.MarkCached(tl, lo, hi) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := int64(i*331) % (DefaultSpan - 4)
				c.mark(lo, lo+4)
			}
		})
	}
}

func BenchmarkMarkCached(b *testing.B) {
	tr := New(DefaultSpan, simtime.DefaultCosts())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo := int64(i*257) % (1 << 18)
		tr.MarkCached(nil, lo, lo+32)
	}
}

// BenchmarkSpanAblation compares the range tree against the single-bitmap
// baseline under concurrent disjoint access — the Table 5 "+range tree"
// effect in microcosm.
func BenchmarkSpanAblation(b *testing.B) {
	for _, span := range []int64{0, 1024, DefaultSpan, 1 << 16} {
		name := "single-node"
		if span > 0 {
			name = byteCount(span)
		}
		b.Run(name, func(b *testing.B) {
			tr := New(span, simtime.DefaultCosts())
			b.RunParallel(func(pb *testing.PB) {
				tl := simtime.NewTimeline(0)
				i := int64(0)
				for pb.Next() {
					lo := (i * 8191) % (1 << 20)
					tr.MarkCached(tl, lo, lo+64)
					tr.CachedCount(tl, lo, lo+64)
					i++
				}
			})
		})
	}
}

func byteCount(span int64) string {
	switch {
	case span >= 1<<16:
		return "span-64Ki"
	case span >= 4096:
		return "span-4Ki"
	default:
		return "span-1Ki"
	}
}
