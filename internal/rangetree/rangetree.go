// Package rangetree implements CROSS-LIB's concurrent per-file range tree
// (§4.5): the user-level structure that tracks which blocks of a file are
// believed cached, partitioned into nodes so that threads operating on
// non-conflicting ranges of a shared file never serialize.
//
// Each node covers a contiguous span of blocks and embeds a bitmap with one
// bit per block in its range. Every node carries its own reader-writer
// lock (both a real lock for data-structure safety and a virtual ledger for
// contention accounting). Nodes are created on demand as the file grows, so
// the tree's footprint scales with the touched portion of the file, and a
// span of one huge node degrades to the paper's baseline "single per-file
// bitmap lock" — which is exactly the ablation Table 5 isolates.
//
// Bits have three states folded into two bitmaps: cached (the block is
// believed resident) and requested (a prefetch is in flight), which is how
// threads sharing a file avoid issuing redundant prefetch system calls.
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

// Tree is a concurrent range tree over the blocks of one file.
type Tree struct {
	span  int64
	costs simtime.Costs

	mu    sync.RWMutex
	nodes map[int64]*node
}

// node covers blocks [lo, lo+span).
type node struct {
	lo int64

	mu        sync.RWMutex
	ledger    *simtime.RWLedger
	cached    *bitmap.Bitmap // node-relative: bit i = block lo+i
	requested *bitmap.Bitmap
	lastTouch simtime.Time // most recent access through this node
}

func (n *node) touch(tl *simtime.Timeline) {
	if tl != nil && tl.Now() > n.lastTouch {
		n.lastTouch = tl.Now()
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

// Span reports the node width in blocks.
func (t *Tree) Span() int64 { return t.span }

// Nodes reports how many nodes have been materialized.
func (t *Tree) Nodes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.nodes)
}

// node returns (creating on demand) the node covering block idx, charging
// the descend cost.
func (t *Tree) node(tl *simtime.Timeline, idx int64) *node {
	if tl != nil {
		tl.Advance(t.costs.RangeTreeOp)
	}
	key := idx / t.span
	t.mu.RLock()
	n, ok := t.nodes[key]
	t.mu.RUnlock()
	if ok {
		return n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok = t.nodes[key]; ok {
		return n
	}
	n = &node{
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

// MarkCached records blocks [lo, hi) as resident.
func (t *Tree) MarkCached(tl *simtime.Timeline, lo, hi int64) {
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) {
		if tl != nil {
			n.ledger.Write(tl, t.lockHold(nhi-nlo))
		}
		n.mu.Lock()
		n.cached.SetRange(nlo-n.lo, nhi-n.lo)
		n.requested.ClearRange(nlo-n.lo, nhi-n.lo)
		n.touch(tl)
		n.mu.Unlock()
	})
}

// ClearCached records blocks [lo, hi) as evicted.
func (t *Tree) ClearCached(tl *simtime.Timeline, lo, hi int64) {
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) {
		if tl != nil {
			n.ledger.Write(tl, t.lockHold(nhi-nlo))
		}
		n.mu.Lock()
		n.cached.ClearRange(nlo-n.lo, nhi-n.lo)
		n.requested.ClearRange(nlo-n.lo, nhi-n.lo)
		n.mu.Unlock()
	})
}

// CachedCount reports how many blocks of [lo, hi) are believed resident.
func (t *Tree) CachedCount(tl *simtime.Timeline, lo, hi int64) int64 {
	var total int64
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) {
		if tl != nil {
			n.ledger.Read(tl, t.lockHold(nhi-nlo))
		}
		n.mu.RLock()
		total += n.cached.CountRange(nlo-n.lo, nhi-n.lo)
		n.mu.RUnlock()
	})
	return total
}

// NeedsPrefetch returns the runs of [lo, hi) that are neither believed
// cached nor already requested, and atomically marks them requested so
// concurrent threads sharing the file do not issue duplicate prefetches
// (§4.5). The caller must follow up with MarkCached (on success) or
// ClearRequested (on failure).
func (t *Tree) NeedsPrefetch(tl *simtime.Timeline, lo, hi int64) []bitmap.Run {
	return t.AppendNeedsPrefetch(tl, nil, lo, hi)
}

// AppendNeedsPrefetch is NeedsPrefetch appending its runs to dst, for
// callers on a read path that bring their own (typically stack) storage.
func (t *Tree) AppendNeedsPrefetch(tl *simtime.Timeline, dst []bitmap.Run, lo, hi int64) []bitmap.Run {
	base := len(dst)
	// add appends [rlo, rhi), merging it into the previous run where the
	// two meet across a node boundary.
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
		n.mu.Lock()
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
		n.mu.Unlock()
		pos = nhi
	}
	return dst
}

// peek returns the node covering block idx without materializing it; nil
// means no block in the node's span has ever been marked.
func (t *Tree) peek(idx int64) *node {
	t.mu.RLock()
	n := t.nodes[idx/t.span]
	t.mu.RUnlock()
	return n
}

// UnrequestedSpan trims [lo, hi) to the outermost blocks with no prefetch
// in flight, without setting any bits or charging virtual time — a
// read-only prefilter for shadow bookkeeping. It deliberately ignores the
// cached belief (which can go stale when the kernel LRU evicts behind the
// library's back); `requested` marks are short-lived and honest. Interior
// requested blocks are not split out. Returns (lo, lo) when every block
// has a request outstanding.
func (t *Tree) UnrequestedSpan(lo, hi int64) (int64, int64) {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	requested := func(idx int64) bool {
		n := t.peek(idx)
		if n == nil {
			return false
		}
		n.mu.RLock()
		r := n.requested.Test(idx - n.lo)
		n.mu.RUnlock()
		return r
	}
	for lo < hi && requested(lo) {
		lo++
	}
	for hi > lo && requested(hi-1) {
		hi--
	}
	return lo, hi
}

// ClearRequested drops in-flight marks for [lo, hi) (failed prefetch).
func (t *Tree) ClearRequested(tl *simtime.Timeline, lo, hi int64) {
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) {
		if tl != nil {
			n.ledger.Write(tl, t.lockHold(nhi-nlo))
		}
		n.mu.Lock()
		n.requested.ClearRange(nlo-n.lo, nhi-n.lo)
		n.mu.Unlock()
	})
}

// ImportBitmap merges a kernel-exported residency window into the tree:
// bits set in src (file-absolute, covering at least [lo, hi)) become
// cached; bits clear become not-cached. This reconciles user-level belief
// with kernel truth after a readahead_info call.
func (t *Tree) ImportBitmap(tl *simtime.Timeline, src *bitmap.Window, lo, hi int64) {
	t.forEachNode(tl, lo, hi, func(n *node, nlo, nhi int64) {
		if tl != nil {
			n.ledger.Write(tl, t.lockHold(nhi-nlo))
		}
		n.mu.Lock()
		for i := nlo; i < nhi; i++ {
			if src.Test(i) {
				n.cached.Set(i - n.lo)
			} else {
				n.cached.Clear(i - n.lo)
				n.requested.Clear(i - n.lo)
			}
		}
		n.mu.Unlock()
	})
}

// ColdRange is a node's block range with cache population and recency,
// used by CROSS-LIB's aggressive reclamation to pick LRU ranges (§4.6).
type ColdRange struct {
	Lo, Hi    int64
	Cached    int64
	Requested int64 // blocks with a prefetch still in flight
	LastTouch simtime.Time
}

// AppendColdestRanges appends to dst the node ranges holding cached blocks,
// coldest (least recently touched) first, and returns the extended slice
// (allocation-free when dst has capacity).
func (t *Tree) AppendColdestRanges(dst []ColdRange) []ColdRange {
	base := len(dst)
	t.mu.RLock()
	for _, n := range t.nodes {
		n.mu.RLock()
		cr := ColdRange{Lo: n.lo, Hi: n.lo + t.span, Cached: n.cached.Count(), Requested: n.requested.Count(), LastTouch: n.lastTouch}
		n.mu.RUnlock()
		if cr.Cached > 0 {
			dst = append(dst, cr)
		}
	}
	t.mu.RUnlock()
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

// LockStats aggregates the per-node ledger contention counters.
func (t *Tree) LockStats() simtime.RWLedgerStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
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
