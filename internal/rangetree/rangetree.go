// Package rangetree implements CROSS-LIB's concurrent per-file range tree
// (§4.5): the user-level structure that tracks which blocks of a file are
// believed cached, partitioned into nodes so that threads operating on
// non-conflicting ranges of a shared file never serialize.
//
// Each node covers a contiguous span of blocks and embeds a bitmap with one
// bit per block in its range. Every node carries its own reader-writer
// lock as a virtual ledger, which accounts the contention §4.5 is about; on
// the host one mutex per tree guards every node, since the threads of a
// simulated system take turns (DESIGN.md §10). Nodes are created on demand
// as the file grows, so the tree's footprint scales with the touched
// portion of the file, and a span of one huge node degrades to the paper's
// baseline "single per-file bitmap lock" — which is exactly the ablation
// Table 5 isolates.
//
// Bits have three states folded into two bitmaps: cached (the block is
// believed resident) and requested (a prefetch claimed the block and no
// reader has consumed it yet), which is how threads sharing a file avoid
// issuing redundant prefetch system calls. A claim lives from the query
// that sets it (NeedsPrefetch) to the mark of the read that lands on the
// block (MarkCached / MarkRead); the prefetch's completion (ImportBitmap)
// sets the cached bit beside it and clears only what did not arrive, so a
// prefetched block nobody has read is both cached and requested.
package rangetree

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/simtime"
)

// DefaultSpan is the default node width in blocks (4096 blocks = 16MB of
// 4KB pages): wide enough to amortize node overhead, narrow enough that
// threads streaming through disjoint file regions touch disjoint nodes.
const DefaultSpan = 4096

// Tree is a concurrent range tree over the blocks of one file. mu guards
// the node map and every node; every exported method takes it, and the
// unexported ones run with it held.
type Tree struct {
	span  int64
	costs simtime.Costs

	mu    sync.Mutex
	nodes map[int64]*node
}

// node covers blocks [lo, lo+span).
type node struct {
	lo int64

	ledger    *simtime.RWLedger
	cached    *bitmap.Bitmap // node-relative: bit i = block lo+i
	requested *bitmap.Bitmap
	lastTouch simtime.Time // the most recent access through this node
}

// full reports whether every block of n is believed cached.
func (n *node) full(span int64) bool { return n.cached.Count() == span }

func (n *node) touch(tl *simtime.Timeline) {
	if tl != nil {
		n.lastTouch = max(n.lastTouch, tl.Now())
	}
}

// New returns a tree with the given node span in blocks. span <= 0 selects
// a single-node tree (the no-range-tree baseline).
func New(span int64, costs simtime.Costs) *Tree {
	if span <= 0 {
		span = 1 << 40 // effectively one node
	}
	return &Tree{span: span, costs: costs, nodes: make(map[int64]*node)}
}

// Nodes reports how many nodes have been materialized.
func (t *Tree) Nodes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.nodes)
}

// node returns (creating on demand) the node covering block idx, charging
// the descend cost.
func (t *Tree) node(tl *simtime.Timeline, idx int64) *node {
	if tl != nil {
		tl.Advance(t.costs.RangeTreeOp)
	}
	return t.lookup(idx)
}

// lookup returns (creating on demand) the node covering block idx.
func (t *Tree) lookup(idx int64) *node {
	key := idx / t.span
	if n, ok := t.nodes[key]; ok {
		return n
	}
	n := &node{
		lo:        key * t.span,
		ledger:    simtime.NewRWLedger("rtnode"),
		cached:    bitmap.New(0),
		requested: bitmap.New(0),
	}
	t.nodes[key] = n
	return n
}

// forEachNode invokes fn once per node overlapping [lo, hi), with the
// intersection clamped to the node.
func (t *Tree) forEachNode(tl *simtime.Timeline, lo, hi int64, fn func(n *node, nlo, nhi int64)) {
	if hi <= lo {
		return
	}
	for pos := lo; pos < hi; {
		n := t.node(tl, pos)
		nhi := n.lo + t.span
		if nhi > hi {
			nhi = hi
		}
		fn(n, pos, nhi)
		pos = nhi
	}
}

// lockHold computes the virtual hold time for a bitmap operation over n
// blocks.
func (t *Tree) lockHold(blocks int64) simtime.Duration {
	return t.costs.BitmapOp * simtime.Duration(1+blocks/64)
}

// MarkCached records blocks [lo, hi) as resident and consumes their
// prefetch claims.
func (t *Tree) MarkCached(tl *simtime.Timeline, lo, hi int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) { t.mark(tl, n, nlo, nhi) })
}

// mark is MarkCached's work on the blocks [lo, hi) of n, past the descend.
func (t *Tree) mark(tl *simtime.Timeline, n *node, lo, hi int64) {
	if tl != nil {
		n.ledger.Write(tl, t.lockHold(hi-lo))
	}
	n.cached.SetRange(lo-n.lo, hi-n.lo)
	n.requested.ClearRange(lo-n.lo, hi-n.lo)
	n.touch(tl)
}

// MarkRead is MarkCached for the blocks [lo, hi) a read brought in, given
// full: the leading blocks of the window the read's own coverage query
// answered from full nodes (AppendNeedsPrefetch), earlier on the same
// timeline. That query has paid the descend to each of those nodes and read
// its population count, so when [lo, hi) lies inside full, a node that is
// still full and holds no prefetch claim anywhere — so MarkCached would
// change none of its bits — gets its recency stamp at tl's time and nothing
// else: no second RangeTreeOp, no write hold of its ledger. Every other
// node, and every node of a range outside full, gets MarkCached.
func (t *Tree) MarkRead(tl *simtime.Timeline, lo, hi int64, full bitmap.Run) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lo < full.Lo || hi > full.Hi {
		t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) { t.mark(tl, n, nlo, nhi) })
		return
	}
	for pos := lo; pos < hi; {
		n := t.lookup(pos)
		nhi := min(n.lo+t.span, hi)
		if n.full(t.span) && n.requested.Count() == 0 {
			n.touch(tl)
		} else {
			if tl != nil {
				tl.Advance(t.costs.RangeTreeOp) // the descend node() charges
			}
			t.mark(tl, n, pos, nhi)
		}
		pos = nhi
	}
}

// ClearCached records blocks [lo, hi) as evicted.
func (t *Tree) ClearCached(tl *simtime.Timeline, lo, hi int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) {
		if tl != nil {
			n.ledger.Write(tl, t.lockHold(nhi-nlo))
		}
		n.cached.ClearRange(nlo-n.lo, nhi-n.lo)
		n.requested.ClearRange(nlo-n.lo, nhi-n.lo)
	})
}

// CachedCount reports how many blocks of [lo, hi) are believed resident.
func (t *Tree) CachedCount(tl *simtime.Timeline, lo, hi int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) {
		if tl != nil {
			n.ledger.Read(tl, t.lockHold(nhi-nlo))
		}
		total += n.cached.CountRange(nlo-n.lo, nhi-n.lo)
	})
	return total
}

// NeedsPrefetch returns the runs of [lo, hi) that are neither believed
// cached nor already requested, and atomically marks them requested so
// concurrent threads sharing the file do not issue duplicate prefetches
// (§4.5). The caller must follow up with MarkCached (on success) or
// ClearRequested (on failure).
func (t *Tree) NeedsPrefetch(tl *simtime.Timeline, lo, hi int64) []bitmap.Run {
	runs, _ := t.AppendNeedsPrefetch(tl, nil, lo, hi)
	return runs
}

// AppendNeedsPrefetch is NeedsPrefetch appending its runs to dst, for
// callers on a read path that bring their own (typically stack) storage.
// It also reports full, the leading blocks of [lo, hi) it answered from
// full nodes — empty at lo when the first node was not — which a read
// inside the window hands to MarkRead.
//
// A node answers from its population count before its bits (DESIGN.md
// §20): one whose every block is believed cached has nothing missing in
// any sub-range and nothing to mark, so it is asked as a reader — one
// BitmapOp on the read side of its ledger. Any other node is scanned a
// word of ^(cached|requested) at a time under the write side, for the hold
// the window's width always cost.
func (t *Tree) AppendNeedsPrefetch(tl *simtime.Timeline, dst []bitmap.Run, lo, hi int64) (runs []bitmap.Run, full bitmap.Run) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(dst)
	full = bitmap.Run{Lo: lo, Hi: lo}
	for pos := lo; pos < hi; {
		n := t.node(tl, pos)
		nhi := min(n.lo+t.span, hi)
		if !t.believedFull(tl, n) {
			dst = t.claimMissing(tl, n, dst, base, pos, nhi)
		} else if full.Hi == pos {
			full.Hi = nhi
		}
		pos = nhi
	}
	return dst, full
}

// believedFull reports whether every block of n is believed cached,
// charging the population-count read when it is.
func (t *Tree) believedFull(tl *simtime.Timeline, n *node) bool {
	if !n.full(t.span) {
		return false
	}
	if tl != nil {
		n.ledger.Read(tl, t.costs.BitmapOp)
	}
	return true
}

// claimMissing appends to dst the runs of [lo, hi), inside n, that are
// neither cached nor requested, and marks them requested. A run that
// starts where dst's last one (past base) ended, across a node boundary,
// extends it.
func (t *Tree) claimMissing(tl *simtime.Timeline, n *node, dst []bitmap.Run, base int, lo, hi int64) []bitmap.Run {
	if tl != nil {
		n.ledger.Write(tl, t.lockHold(hi-lo))
	}
	rhi := hi - n.lo
	for i := n.cached.NextClearInBoth(n.requested, lo-n.lo, rhi); i < rhi; {
		end := n.cached.NextSetInEither(n.requested, i+1, rhi)
		n.requested.SetRange(i, end)
		if last := len(dst) - 1; last >= base && dst[last].Hi == n.lo+i {
			dst[last].Hi = n.lo + end
		} else {
			dst = append(dst, bitmap.Run{Lo: n.lo + i, Hi: n.lo + end})
		}
		i = n.cached.NextClearInBoth(n.requested, end, rhi)
	}
	return dst
}

// peek returns the node covering block idx without materializing it; nil
// means no block in the node's span has ever been marked.
func (t *Tree) peek(idx int64) *node { return t.nodes[idx/t.span] }

// UnrequestedSpan trims [lo, hi) to the outermost blocks with no prefetch
// claim, without setting any bits or charging virtual time — a read-only
// prefilter for shadow bookkeeping. It deliberately ignores the cached
// belief (which can go stale when the kernel LRU evicts behind the
// library's back); a claim goes only when a read consumes it, the library
// evicts the block, or its prefetch gives it back. Interior
// requested blocks are not split out. Returns (lo, lo) when every block
// has a request outstanding. A node with no request outstanding at all —
// the usual case — is not scanned.
func (t *Tree) UnrequestedSpan(lo, hi int64) (int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	for lo < hi {
		n := t.peek(lo)
		if n == nil {
			break
		}
		nhi := min(n.lo+t.span, hi)
		idle := n.requested.Count() == 0
		if !idle {
			lo = n.lo + n.requested.NextClear(lo-n.lo, nhi-n.lo)
		}
		if idle && nhi == hi {
			return lo, hi // the whole window in one node with nothing in flight
		}
		if lo < nhi {
			break
		}
	}
	for hi > lo {
		n := t.peek(hi - 1)
		if n == nil {
			break
		}
		nlo := max(n.lo, lo)
		if n.requested.Count() > 0 {
			for hi > nlo && n.requested.Test(hi-1-n.lo) {
				hi--
			}
		}
		if hi > nlo {
			break
		}
	}
	return lo, hi
}

// ClearRequested drops the prefetch claims on [lo, hi): a prefetch that
// failed, or the part of one that was not granted or not issued.
func (t *Tree) ClearRequested(tl *simtime.Timeline, lo, hi int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) {
		if tl != nil {
			n.ledger.Write(tl, t.lockHold(nhi-nlo))
		}
		n.requested.ClearRange(nlo-n.lo, nhi-n.lo)
	})
}

// ImportBitmap merges a kernel-exported residency window into the tree:
// bits set in src (file-absolute, covering at least [lo, hi)) become
// cached; bits clear become not-cached. This reconciles user-level belief
// with kernel truth after a readahead_info call.
func (t *Tree) ImportBitmap(tl *simtime.Timeline, src *bitmap.Window, lo, hi int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) {
		if tl != nil {
			n.ledger.Write(tl, t.lockHold(nhi-nlo))
		}
		absent := func(lo, hi int64) {
			n.cached.ClearRange(lo-n.lo, hi-n.lo)
			n.requested.ClearRange(lo-n.lo, hi-n.lo)
		}
		pos := nlo
		for it := src.PresentIter(nlo, nhi); ; {
			r, ok := it.Next()
			if !ok {
				break
			}
			absent(pos, r.Lo)
			n.cached.SetRange(r.Lo-n.lo, r.Hi-n.lo)
			pos = r.Hi
		}
		absent(pos, nhi)
	})
}

// ColdRange is a node's block range with cache population and recency,
// used by CROSS-LIB's aggressive reclamation to pick LRU ranges (§4.6).
type ColdRange struct {
	Lo, Hi    int64
	Cached    int64
	Requested int64 // blocks claimed by a prefetch and not read since
	LastTouch simtime.Time
}

// AppendColdestRanges appends to dst the node ranges holding cached blocks,
// coldest (least recently touched) first, and returns the extended slice
// (allocation-free when dst has capacity).
func (t *Tree) AppendColdestRanges(dst []ColdRange) []ColdRange {
	base := len(dst)
	t.mu.Lock()
	for _, n := range t.nodes {
		if c := n.cached.Count(); c > 0 {
			dst = append(dst, ColdRange{Lo: n.lo, Hi: n.lo + t.span, Cached: c, Requested: n.requested.Count(), LastTouch: n.lastTouch})
		}
	}
	t.mu.Unlock()
	// Tie-break on Lo: spans touched at the same instant (one prefetch
	// marking several) otherwise surface in map-iteration order, and the
	// eviction order downstream must be reproducible.
	slices.SortFunc(dst[base:], func(a, b ColdRange) int {
		if a.LastTouch != b.LastTouch {
			return cmp.Compare(a.LastTouch, b.LastTouch)
		}
		return cmp.Compare(a.Lo, b.Lo)
	})
	return dst
}

// HasColdRange reports whether AppendColdestRanges would return a range
// that starts below block end, was last touched before the given time and
// holds no prefetch claim: a range an evictor may drop. It walks the nodes
// once, appends nothing and sorts nothing.
func (t *Tree) HasColdRange(before simtime.Time, end int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.nodes {
		if n.lo < end && n.lastTouch < before && n.cached.Count() > 0 && n.requested.Count() == 0 {
			return true
		}
	}
	return false
}

// LockStats aggregates the per-node ledger contention counters.
func (t *Tree) LockStats() simtime.RWLedgerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out simtime.RWLedgerStats
	out.Name = "rangetree"
	for _, n := range t.nodes {
		s := n.ledger.Stats()
		out.Reads += s.Reads
		out.Writes += s.Writes
		out.ReadWait += s.ReadWait
		out.WriteWait += s.WriteWait
	}
	return out
}
