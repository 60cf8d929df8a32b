package rangetree

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/simtime"
)

func newTree(span int64) *Tree { return New(span, simtime.DefaultCosts()) }

func TestMarkAndCount(t *testing.T) {
	tr := newTree(64)
	tl := simtime.NewTimeline(0)
	tr.MarkCached(tl, 10, 200) // spans 4 nodes
	if got := tr.CachedCount(tl, 0, 300); got != 190 {
		t.Fatalf("cached = %d, want 190", got)
	}
	if got := tr.CachedCount(tl, 50, 100); got != 50 {
		t.Fatalf("window count = %d, want 50", got)
	}
	if tr.Nodes() < 4 {
		t.Fatalf("expected >= 4 nodes, got %d", tr.Nodes())
	}
}

func TestClearCached(t *testing.T) {
	tr := newTree(64)
	tr.MarkCached(nil, 0, 100)
	tr.ClearCached(nil, 30, 70)
	if got := tr.CachedCount(nil, 0, 100); got != 60 {
		t.Fatalf("cached = %d, want 60", got)
	}
}

func TestNeedsPrefetchMarksRequested(t *testing.T) {
	tr := newTree(64)
	tr.MarkCached(nil, 20, 40)
	runs := tr.NeedsPrefetch(nil, 0, 60)
	if len(runs) != 2 || runs[0] != (bitmap.Run{Lo: 0, Hi: 20}) || runs[1] != (bitmap.Run{Lo: 40, Hi: 60}) {
		t.Fatalf("runs = %v", runs)
	}
	// A second caller over the same window sees everything in flight.
	if again := tr.NeedsPrefetch(nil, 0, 60); len(again) != 0 {
		t.Fatalf("duplicate prefetch not suppressed: %v", again)
	}
	// Completion converts requested to cached.
	tr.MarkCached(nil, 0, 60)
	if got := tr.CachedCount(nil, 0, 60); got != 60 {
		t.Fatalf("cached = %d", got)
	}
}

func TestNeedsPrefetchMergesAcrossNodes(t *testing.T) {
	tr := newTree(64)
	runs := tr.NeedsPrefetch(nil, 0, 256) // 4 nodes, all missing
	if len(runs) != 1 || runs[0] != (bitmap.Run{Lo: 0, Hi: 256}) {
		t.Fatalf("runs not merged across nodes: %v", runs)
	}
}

func TestClearRequested(t *testing.T) {
	tr := newTree(64)
	tr.NeedsPrefetch(nil, 0, 10)
	tr.ClearRequested(nil, 0, 10)
	runs := tr.NeedsPrefetch(nil, 0, 10)
	if len(runs) != 1 || runs[0].Blocks() != 10 {
		t.Fatalf("requested marks not cleared: %v", runs)
	}
}

func TestImportBitmap(t *testing.T) {
	tr := newTree(64)
	tr.MarkCached(nil, 0, 100) // stale belief
	var kernel bitmap.Bitmap
	kernel.SetRange(0, 50) // kernel truth: only first 50 resident
	var src bitmap.Window
	kernel.CopyWindow(&src, 0, 100)
	tr.ImportBitmap(nil, &src, 0, 100)
	if got := tr.CachedCount(nil, 0, 100); got != 50 {
		t.Fatalf("after import cached = %d, want 50", got)
	}
}

func TestSingleNodeBaseline(t *testing.T) {
	tr := newTree(0) // single-node tree
	tr.MarkCached(nil, 0, 10_000)
	if tr.Nodes() != 1 {
		t.Fatalf("baseline should use one node, got %d", tr.Nodes())
	}
}

func TestDisjointRangesDoNotContend(t *testing.T) {
	tr := newTree(64)
	a := simtime.NewTimeline(0)
	b := simtime.NewTimeline(0)
	// Warm both nodes so node-creation cost doesn't blur the check.
	tr.MarkCached(nil, 0, 1)
	tr.MarkCached(nil, 1000, 1001)
	tr.MarkCached(a, 0, 64)
	tr.MarkCached(b, 1000, 1064)
	if a.Account(simtime.WaitLock) != 0 || b.Account(simtime.WaitLock) != 0 {
		t.Fatalf("disjoint ranges contended: a=%v b=%v",
			a.Account(simtime.WaitLock), b.Account(simtime.WaitLock))
	}
}

func TestSameRangeContends(t *testing.T) {
	tr := newTree(0) // single node: everything collides
	a := simtime.NewTimeline(0)
	tr.MarkCached(a, 0, 1_000_000)
	b := simtime.NewTimeline(0)
	tr.MarkCached(b, 0, 1_000_000)
	if b.Account(simtime.WaitLock) == 0 {
		t.Fatal("same-node writes should contend")
	}
	st := tr.LockStats()
	if st.Writes != 2 {
		t.Fatalf("lock stats writes = %d, want 2", st.Writes)
	}
	if st.WriteWait == 0 {
		t.Fatal("lock stats should record write wait")
	}
}

func TestConcurrentSafety(t *testing.T) {
	tr := newTree(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := simtime.NewTimeline(0)
			base := int64(w * 1000)
			for i := int64(0); i < 100; i++ {
				tr.NeedsPrefetch(tl, base+i, base+i+20)
				tr.MarkCached(tl, base+i, base+i+20)
				tr.CachedCount(tl, base, base+200)
				if i%7 == 0 {
					tr.ClearCached(tl, base, base+10)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestClaimsAreExclusive is §4.5's promise under raw goroutines: threads
// sharing a file never both issue a prefetch for one block. Eight
// goroutines claim overlapping windows of one empty multi-node tree, round
// after round; each settles the first half of every run it was granted
// with MarkCached and gives the rest back with ClearRequested, yielding
// between the claim and the settle so that claims overlap. No block is
// granted while another caller holds it, a settled block is never granted
// again, and at quiesce no claim is left and exactly the settled blocks are
// cached.
func TestClaimsAreExclusive(t *testing.T) {
	const span, blocks, workers, rounds = 64, 32 * 64, 8, 300
	tr := newTree(span)
	owner := make([]atomic.Int32, blocks) // 0, or the goroutine that holds the block's claim
	var settled atomic.Int64
	var wg sync.WaitGroup
	for w := int32(1); w <= workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			tl := simtime.NewTimeline(0)
			var buf [16]bitmap.Run
			for i := 0; i < rounds; i++ {
				lo := rng.Int63n(blocks)
				hi := min(lo+1+rng.Int63n(2*span+span/2), blocks)
				runs, _ := tr.AppendNeedsPrefetch(tl, buf[:0], lo, hi)
				for j, r := range runs {
					if r.Lo < lo || r.Hi > hi || r.Hi <= r.Lo || (j > 0 && r.Lo <= runs[j-1].Hi) {
						t.Errorf("query [%d,%d) granted run %v of %v", lo, hi, r, runs)
						return
					}
					for b := r.Lo; b < r.Hi; b++ {
						if prev := owner[b].Swap(w); prev != 0 {
							t.Errorf("block %d granted to goroutine %d while goroutine %d held it", b, w, prev)
							return
						}
					}
				}
				runtime.Gosched()
				for _, r := range runs {
					mid := r.Lo + (r.Blocks()+1)/2
					tr.MarkCached(tl, r.Lo, mid) // settled blocks keep their owner: no one may claim them again
					settled.Add(mid - r.Lo)
					for b := mid; b < r.Hi; b++ {
						owner[b].Store(0)
					}
					tr.ClearRequested(tl, mid, r.Hi)
				}
			}
		}()
	}
	wg.Wait()
	for key, n := range tr.nodes {
		if c := n.requested.Count(); c != 0 {
			t.Errorf("node %d: %d blocks still claimed at quiesce", key, c)
		}
	}
	if got, want := tr.CachedCount(nil, 0, blocks), settled.Load(); got != want {
		t.Errorf("%d blocks cached at quiesce, %d settled", got, want)
	}
	if settled.Load() == 0 {
		t.Error("no claim was ever granted")
	}
}

func TestEmptyRangeOps(t *testing.T) {
	tr := newTree(64)
	tr.MarkCached(nil, 10, 10)
	if got := tr.CachedCount(nil, 10, 10); got != 0 {
		t.Fatalf("empty range count = %d", got)
	}
	if runs := tr.NeedsPrefetch(nil, 5, 5); len(runs) != 0 {
		t.Fatalf("empty range runs = %v", runs)
	}
}

// TestFullNodeAnswersOnReadSide is the contract of the full-node answer:
// it books a read hold of one BitmapOp and no write, so two timelines
// asking one fully cached node at the same instant do not wait for each
// other, where over a node with one block missing the second one does.
func TestFullNodeAnswersOnReadSide(t *testing.T) {
	costs := simtime.DefaultCosts()
	tr := newTree(64)
	tr.MarkCached(nil, 0, 64)
	before := tr.LockStats()
	a, b := simtime.NewTimeline(0), simtime.NewTimeline(0)
	for _, tl := range []*simtime.Timeline{a, b} {
		if runs := tr.NeedsPrefetch(tl, 8, 40); len(runs) != 0 {
			t.Fatalf("full node reports missing runs %v", runs)
		}
		if got, want := tl.Now(), simtime.Time(costs.RangeTreeOp+costs.BitmapOp); got != want {
			t.Fatalf("full-node answer took %v, want %v", got, want)
		}
	}
	st := tr.LockStats()
	if st.Writes != before.Writes || st.WriteWait != 0 || st.ReadWait != 0 || st.Reads != before.Reads+2 {
		t.Fatalf("full-node queries booked %+v (before: %+v); want two reads, no write, no wait", st, before)
	}
	if a.Account(simtime.WaitLock)+b.Account(simtime.WaitLock) != 0 {
		t.Fatal("full-node queries waited on the node lock")
	}

	tr.ClearCached(nil, 20, 21)
	a, b = simtime.NewTimeline(0), simtime.NewTimeline(0)
	tr.NeedsPrefetch(a, 8, 40)
	tr.NeedsPrefetch(b, 8, 40)
	if tr.LockStats().WriteWait == 0 {
		t.Fatal("queries over a node with a hole should serialize on its write side")
	}
}

// TestReadMarkOnFullNode is the contract of a read's mark (DESIGN.md §20):
// inside the full-node span its own query reported, a node that is still
// full and holds no prefetch claim gets its recency stamp and nothing else —
// no virtual time, no ledger write. Every other node gets MarkCached, its
// charge and its effect: a full node a settled prefetch left claimed, a
// node a writer punched a hole in since the query, and any node of a range
// that reaches past the span.
func TestReadMarkOnFullNode(t *testing.T) {
	costs := simtime.DefaultCosts()
	markCost := costs.RangeTreeOp + costs.BitmapOp // MarkCached of four blocks in one node
	settle := func(tr *Tree) {                     // a prefetch of node 0 that completed and was not read
		tr.ClearCached(nil, 0, 64)
		tr.NeedsPrefetch(nil, 0, 64)
		var kernel bitmap.Bitmap
		var win bitmap.Window
		kernel.SetRange(0, 64)
		kernel.CopyWindow(&win, 0, 64)
		tr.ImportBitmap(nil, &win, 0, 64)
	}
	for _, c := range []struct {
		name           string
		setup, between func(tr *Tree)
		qlo, qhi       int64 // the read's query
		lo, hi         int64 // the read's mark
		cost           simtime.Duration
		claimed        int64 // requested blocks left in node 0
	}{
		{name: "settled", qlo: 8, qhi: 40, lo: 10, hi: 14},
		{name: "across two settled nodes", qlo: 60, qhi: 70, lo: 62, hi: 66},
		{name: "claimed by a settled prefetch", setup: settle, qlo: 8, qhi: 40, lo: 10, hi: 14, cost: markCost, claimed: 60},
		{name: "hole since the query", between: func(tr *Tree) { tr.ClearCached(nil, 30, 31) }, qlo: 8, qhi: 40, lo: 10, hi: 14, cost: markCost},
		{name: "past the span", qlo: 8, qhi: 40, lo: 38, hi: 42, cost: markCost},
		{name: "no full answer", between: func(tr *Tree) { tr.MarkCached(nil, 0, 64) }, setup: func(tr *Tree) { tr.ClearCached(nil, 0, 1) }, qlo: 8, qhi: 40, lo: 10, hi: 14, cost: markCost},
	} {
		tr := newTree(64)
		tr.MarkCached(nil, 0, 128)
		if c.setup != nil {
			c.setup(tr)
		}
		tl := simtime.NewTimeline(0)
		_, full := tr.AppendNeedsPrefetch(tl, nil, c.qlo, c.qhi)
		if c.between != nil {
			c.between(tr)
		}
		tl.Advance(simtime.Microsecond) // the kernel's read
		start, writes := tl.Now(), tr.LockStats().Writes
		tr.MarkRead(tl, c.lo, c.hi, full)
		if got := tl.Now().Sub(start); got != c.cost {
			t.Errorf("%s: the mark of [%d,%d) after a query of [%d,%d) (full %v) took %v, want %v", c.name, c.lo, c.hi, c.qlo, c.qhi, full, got, c.cost)
		}
		if wrote := tr.LockStats().Writes - writes; (wrote == 0) != (c.cost == 0) {
			t.Errorf("%s: the mark booked %d ledger writes at cost %v", c.name, wrote, c.cost)
		}
		if got := tr.CachedCount(nil, c.lo, c.hi); got != c.hi-c.lo {
			t.Errorf("%s: %d of the %d blocks read believed cached", c.name, got, c.hi-c.lo)
		}
		if got := tr.lookup(0).requested.Count(); got != c.claimed {
			t.Errorf("%s: %d blocks of node 0 still claimed, want %d", c.name, got, c.claimed)
		}
		for pos := c.lo; pos < c.hi; pos = (pos/64 + 1) * 64 {
			if got := tr.lookup(pos).lastTouch; got != tl.Now() {
				t.Errorf("%s: node at %d stamped %v, want the mark's time %v", c.name, pos, got, tl.Now())
			}
		}
	}
}

// TestNeedsPrefetchAllocs: with the caller's storage a query allocates
// nothing, whether a full node answers it or the words are scanned.
func TestNeedsPrefetchAllocs(t *testing.T) {
	tr := newTree(DefaultSpan)
	tr.MarkCached(nil, 0, DefaultSpan) // node 0 full
	for lo := int64(DefaultSpan); lo < 2*DefaultSpan; lo += 8 {
		tr.MarkCached(nil, lo, lo+6) // node 1: two of every eight missing
	}
	tl := simtime.NewTimeline(0)
	var buf [256]bitmap.Run
	for _, c := range []struct {
		name   string
		lo, hi int64
		runs   int
	}{
		{"full", 1000, 2024, 0},
		{"sparse", DefaultSpan + 1000, DefaultSpan + 2024, 128},
	} {
		var runs []bitmap.Run
		allocs := testing.AllocsPerRun(100, func() {
			runs, _ = tr.AppendNeedsPrefetch(tl, buf[:0], c.lo, c.hi)
			for _, r := range runs {
				tr.ClearRequested(nil, r.Lo, r.Hi)
			}
		})
		if len(runs) != c.runs {
			t.Errorf("%s: %d runs, want %d", c.name, len(runs), c.runs)
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per query, want 0", c.name, allocs)
		}
	}
}

// refAppendNeedsPrefetch is AppendNeedsPrefetch as it was before the tree
// answered from summaries: every node under its write side, two
// bitmap.Test per block. The reference the lockstep and fuzz tests hold the
// word-wise scan and the full-node answer to.
func refAppendNeedsPrefetch(t *Tree, tl *simtime.Timeline, dst []bitmap.Run, lo, hi int64) []bitmap.Run {
	base := len(dst)
	add := func(rlo, rhi int64) {
		if last := len(dst) - 1; last >= base && dst[last].Hi == rlo {
			dst[last].Hi = rhi
			return
		}
		dst = append(dst, bitmap.Run{Lo: rlo, Hi: rhi})
	}
	for pos := lo; pos < hi; {
		n := t.node(tl, pos)
		nhi := min(n.lo+t.span, hi)
		if tl != nil {
			n.ledger.Write(tl, t.lockHold(nhi-pos))
		}
		rlo, rhi := pos-n.lo, nhi-n.lo
		runStart := int64(-1)
		for i := rlo; i < rhi; i++ {
			if !n.cached.Test(i) && !n.requested.Test(i) {
				if runStart < 0 {
					runStart = i
				}
				continue
			}
			if runStart >= 0 {
				add(n.lo+runStart, n.lo+i)
				n.requested.SetRange(runStart, i)
				runStart = -1
			}
		}
		if runStart >= 0 {
			add(n.lo+runStart, n.lo+rhi)
			n.requested.SetRange(runStart, rhi)
		}
		pos = nhi
	}
	return dst
}

// refImportBitmap is ImportBitmap as it was before it went a run at a
// time: every block of the window tested and set or cleared on its own.
func refImportBitmap(t *Tree, tl *simtime.Timeline, src *bitmap.Window, lo, hi int64) {
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) {
		if tl != nil {
			n.ledger.Write(tl, t.lockHold(nhi-nlo))
		}
		for i := nlo; i < nhi; i++ {
			if src.Test(i) {
				n.cached.Set(i - n.lo)
			} else {
				n.cached.Clear(i - n.lo)
				n.requested.Clear(i - n.lo)
			}
		}
	})
}

// refUnrequestedSpan is UnrequestedSpan one bit at a time.
func refUnrequestedSpan(t *Tree, lo, hi int64) (int64, int64) {
	requested := func(idx int64) bool {
		n := t.peek(idx)
		return n != nil && n.requested.Test(idx-n.lo)
	}
	for lo < hi && requested(lo) {
		lo++
	}
	for hi > lo && requested(hi-1) {
		hi--
	}
	return lo, hi
}

// lockstepFile is the file the lockstep programs run over: whole nodes and
// a tail node that never fills (a single-node tree is all tail).
func lockstepFile(span int64) int64 {
	if span <= 0 {
		return 10_000
	}
	return 3*span + span/3
}

const lockstepOpBytes = 5

// lockstep interprets prog, five bytes an operation, against a tree and a
// reference tree that differs only in how it answers NeedsPrefetch, marks
// a read and imports a kernel bitmap, and after every step compares the
// runs returned, the cached and requested bits of every node, and the
// virtual clocks: identical, except that a believed-full node costs the tree
// RangeTreeOp + BitmapOp where it costs the reference RangeTreeOp + the
// window's write hold, and a read's mark on a node inside its query's
// full-node span that is still full and holds no claim costs the tree
// nothing where the reference's MarkCached costs RangeTreeOp + the write
// hold. It returns how many full nodes the program queried and how many
// node marks it skipped.
func lockstep(t testing.TB, span int64, prog []byte) (fullAnswers, skippedMarks int) {
	costs := simtime.DefaultCosts()
	got, ref := New(span, costs), New(span, costs)
	gtl, rtl := simtime.NewTimeline(0), simtime.NewTimeline(0)
	file := lockstepFile(span)
	var saved simtime.Duration // what the full-node answers and skipped marks have saved so far
	var full bitmap.Run        // the full-node span of the last query, which a read-mark hands on
	var kernel bitmap.Bitmap
	var win bitmap.Window

	for step := 0; len(prog) >= lockstepOpBytes; step++ {
		op, shape := prog[0]&7, prog[0]>>3&3
		a := int64(binary.LittleEndian.Uint16(prog[1:]))
		b := int64(binary.LittleEndian.Uint16(prog[3:]))
		prog = prog[lockstepOpBytes:]

		lo := a % file
		var hi int64
		switch shape {
		case 0: // a read's worth
			hi = lo + b%16 + 1
		case 1: // across node edges
			hi = lo + b%(2*got.span+1)
		case 2: // the whole node
			lo -= lo % got.span
			hi = lo + got.span
		default: // up to and across EOF
			hi = file + b%8
		}
		if got.span > file { // single node: nothing is as wide as the node
			hi = min(hi, lo+b%4096+1)
		}

		switch op {
		case 0: // only the file's own blocks are ever cached
			hi = min(hi, file)
			got.MarkCached(gtl, lo, hi)
			ref.MarkCached(rtl, lo, hi)
		case 1: // a read's worth, landing in the last query's full span when there is one
			if full.Blocks() > 0 {
				lo = full.Lo + a%full.Blocks()
				hi = lo + b%16 + 1
			}
			hi = min(hi, file)
			if lo >= full.Lo && hi <= full.Hi {
				for pos := lo; pos < hi; pos = (pos/ref.span + 1) * ref.span {
					if n := ref.peek(pos); n.cached.Count() == ref.span && n.requested.Count() == 0 {
						width := min((pos/ref.span+1)*ref.span, hi) - pos
						saved += costs.RangeTreeOp + ref.lockHold(width)
						skippedMarks++
					}
				}
			}
			got.MarkRead(gtl, lo, hi, full)
			ref.MarkCached(rtl, lo, hi)
		case 2:
			got.ClearCached(gtl, lo, hi)
			ref.ClearCached(rtl, lo, hi)
		case 3:
			got.ClearRequested(gtl, lo, hi)
			ref.ClearRequested(rtl, lo, hi)
		case 4:
			hi = min(hi, file)
			// Kernel truth for the window: b's bits, a block each, repeated.
			kernel.ClearRange(0, file)
			for i := lo; i < hi; i++ {
				if b>>(uint(i)%16)&1 != 0 {
					kernel.Set(i)
				}
			}
			kernel.CopyWindow(&win, lo, hi)
			got.ImportBitmap(gtl, &win, lo, hi)
			refImportBitmap(ref, rtl, &win, lo, hi)
		default:
			for pos := lo; pos < hi; pos = (pos/ref.span + 1) * ref.span {
				if n := ref.peek(pos); n != nil && n.cached.Count() == ref.span {
					width := min((pos/ref.span+1)*ref.span, hi) - pos
					saved += ref.lockHold(width) - costs.BitmapOp
					fullAnswers++
				}
			}
			var gruns []bitmap.Run
			gruns, full = got.AppendNeedsPrefetch(gtl, nil, lo, hi)
			rruns := refAppendNeedsPrefetch(ref, rtl, nil, lo, hi)
			if !slices.Equal(gruns, rruns) {
				i := 0
				for i < len(gruns) && i < len(rruns) && gruns[i] == rruns[i] {
					i++
				}
				t.Fatalf("step %d: NeedsPrefetch[%d,%d): %d runs, reference %d, differing from run %d: %v, reference %v",
					step, lo, hi, len(gruns), len(rruns), i, gruns[i:min(i+1, len(gruns))], rruns[i:min(i+1, len(rruns))])
			}
			glo, ghi := got.UnrequestedSpan(lo, hi)
			rlo, rhi := refUnrequestedSpan(ref, lo, hi)
			if glo != rlo || ghi != rhi {
				t.Fatalf("step %d: UnrequestedSpan[%d,%d) = [%d,%d), reference [%d,%d)", step, lo, hi, glo, ghi, rlo, rhi)
			}
		}

		if g, r := gtl.Now(), rtl.Now(); g.Add(saved) != r {
			t.Fatalf("step %d (op %d [%d,%d)): clock %v + saved %v != reference %v", step, op, lo, hi, g, saved, r)
		}
		if len(got.nodes) != len(ref.nodes) {
			t.Fatalf("step %d: %d nodes, reference %d", step, len(got.nodes), len(ref.nodes))
		}
		for key, rn := range ref.nodes {
			gn := got.nodes[key]
			if gn == nil {
				t.Fatalf("step %d: node %d missing", step, key)
			}
			end := min(got.span, file+5000) // past the widest query of a single-node tree
			if !sameBits(gn.cached, rn.cached, end) || !sameBits(gn.requested, rn.requested, end) {
				t.Fatalf("step %d (op %d [%d,%d)): node %d bits differ from the reference", step, op, lo, hi, key)
			}
		}
	}
	if st := got.LockStats(); st.WriteWait+st.ReadWait != 0 {
		t.Fatalf("one timeline waited on its own locks: %+v", st)
	}
	return fullAnswers, skippedMarks
}

func sameBits(a, b *bitmap.Bitmap, end int64) bool {
	return a.Count() == b.Count() && slices.Equal(a.PresentRuns(0, end), b.PresentRuns(0, end))
}

var lockstepSpans = []int64{64, 4096, 0}

func TestLockstepAgainstBits(t *testing.T) {
	for _, span := range lockstepSpans {
		full, skipped := 0, 0
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			prog := make([]byte, 1500*lockstepOpBytes)
			rng.Read(prog)
			f, s := lockstep(t, span, prog)
			full, skipped = full+f, skipped+s
		}
		// A single-node tree has no full node; the others must meet some,
		// and skip some marks, or the programs do not reach the paths
		// under test.
		if span > 0 && (full < 20 || skipped < 10) {
			t.Errorf("span %d: only %d full-node answers and %d skipped marks in 6000 steps", span, full, skipped)
		}
		t.Logf("span %d: %d full-node answers, %d skipped marks", span, full, skipped)
	}
}

// FuzzTreeAgainstBits is the lockstep test with the program in the fuzzer's
// hands; the seed corpus runs under plain `go test`.
func FuzzTreeAgainstBits(f *testing.F) {
	// Fill a node, query inside it, across its edge and to EOF; punch a
	// hole and query again.
	fill := []byte{
		0x10, 0, 0, 0, 0, // MarkCached node 0
		0x05, 10, 0, 3, 0, // NeedsPrefetch inside it
		0x0d, 50, 0, 40, 0, // NeedsPrefetch across its edge
		0x1d, 5, 0, 2, 0, // NeedsPrefetch to past EOF
		0x02, 20, 0, 4, 0, // ClearCached a few blocks
		0x15, 0, 0, 0, 0, // NeedsPrefetch the node
		0x03, 20, 0, 1, 0, // ClearRequested part of it
		0x0c, 8, 0, 0x55, 0xaa, // ImportBitmap across nodes
		0x0d, 0, 0, 200, 0,
		0x10, 0, 0, 0, 0, // MarkCached node 0 again
		0x05, 10, 0, 3, 0, // NeedsPrefetch inside it: a full answer
		0x01, 2, 0, 0, 0, // a read inside the full span: the mark is skipped
	}
	// A settled prefetch: claim a whole node, then import it all resident,
	// as ImportBitmap leaves a completed prefetch — full, every block still
	// requested. A read's query answers full, and its mark must not skip.
	claimed := []byte{
		0x15, 0, 0, 0, 0, // NeedsPrefetch node 0: every block requested
		0x14, 0, 0, 0xff, 0xff, // ImportBitmap node 0, all resident
		0x05, 10, 0, 3, 0, // NeedsPrefetch inside it: a full answer
		0x01, 2, 0, 0, 0, // a read inside the full span: marked, its claim consumed
		0x05, 10, 0, 3, 0,
		0x01, 0, 0, 3, 0, // the rest of the node still claimed: marked again
	}
	rng := rand.New(rand.NewSource(24))
	random := make([]byte, 400*lockstepOpBytes)
	rng.Read(random)
	for sel := range lockstepSpans {
		f.Add(uint8(sel), fill)
		f.Add(uint8(sel), claimed)
		f.Add(uint8(sel), random)
	}
	f.Fuzz(func(t *testing.T, sel uint8, prog []byte) {
		lockstep(t, lockstepSpans[int(sel)%len(lockstepSpans)], prog)
	})
}

// TestFullNodeQueriesRaceWithWriters puts the read-side answer under the
// race detector: readers ask a full node while a writer keeps punching a
// hole in it and filling it again. Whatever interleaving, a query reports
// either nothing or exactly the hole.
func TestFullNodeQueriesRaceWithWriters(t *testing.T) {
	tr := newTree(64)
	tr.MarkCached(nil, 0, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := simtime.NewTimeline(0)
			var buf [4]bitmap.Run
			for i := 0; i < 500; i++ {
				runs, _ := tr.AppendNeedsPrefetch(tl, buf[:0], 0, 64)
				if len(runs) > 1 || (len(runs) == 1 && runs[0] != bitmap.Run{Lo: 30, Hi: 31}) {
					t.Errorf("query saw %v", runs)
					return
				}
				tr.UnrequestedSpan(0, 64)
			}
		}()
	}
	wtl := simtime.NewTimeline(0)
	for i := 0; i < 500; i++ {
		tr.ClearCached(wtl, 30, 31)
		tr.MarkCached(wtl, 30, 31)
	}
	wg.Wait()
}

// TestReadMarksRaceWithWriters puts the read's mark under the race
// detector: readers run query → read-mark over full nodes, and settle what
// their queries claimed, while a writer keeps punching holes in the same
// nodes and filling them again. At quiesce every block the writer refilled
// is cached, and no claim is left.
func TestReadMarksRaceWithWriters(t *testing.T) {
	const span, blocks = 64, 256
	tr := newTree(span)
	tr.MarkCached(nil, 0, blocks)
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := simtime.NewTimeline(0)
			var buf [8]bitmap.Run
			for i := int64(0); i < 500; i++ {
				lo := (i*37 + w*61) % (blocks - 4)
				runs, full := tr.AppendNeedsPrefetch(tl, buf[:0], lo, lo+span)
				tl.Advance(simtime.Microsecond)
				tr.MarkRead(tl, lo, lo+4, full)
				for _, r := range runs {
					tr.MarkCached(tl, r.Lo, r.Hi)
				}
			}
		}()
	}
	wtl := simtime.NewTimeline(0)
	for i := int64(0); i < 500; i++ {
		lo := i * 53 % blocks
		tr.ClearCached(wtl, lo, lo+1)
		tr.MarkCached(wtl, lo, lo+1)
	}
	wg.Wait()
	for key, n := range tr.nodes {
		if n.requested.Count() != 0 {
			t.Errorf("node %d: %d blocks still claimed", key, n.requested.Count())
		}
	}
	if got := tr.CachedCount(nil, 0, blocks); got != blocks {
		t.Errorf("%d of %d blocks cached at quiesce", got, blocks)
	}
}
