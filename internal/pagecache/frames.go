package pagecache

import (
	"sync"
	"sync/atomic"
)

// The frame table is the cache's mem_map: every resident page is one
// value-typed, pointer-free page frame in a fixed-size slab, named by a
// frameID. Slabs are allocated on demand as residency grows (never sized
// to CapacityPages up front) and are never scanned by the garbage
// collector; evicted frames go on a free list threaded through the frames
// themselves and are handed out again, so a steady-state insert→evict
// cycle allocates nothing.
//
// Recycle-safety rule. A frame can be reused the moment it is freed, so a
// frameID may be dereferenced only by someone who can prove the frame is
// still the incarnation they mean:
//
//   - it was read from a file's index while holding that file's mu
//     (shared or exclusive): a frame leaves the index before it is freed;
//   - it is linked on an LRU list and the LRU lock is held: a frame is
//     unlinked before it is freed, and is linked before its file's mu is
//     released after the insert;
//   - the holder removed it from its file's index and so owns it until it
//     calls frameTable.release (RemoveRange, evictFromFiles → finishEviction);
//   - or it is re-validated: reclaim carries victims across lock drops as
//     (file, idx, id, seq) and evicts only if, under the file's mu, the
//     index still maps idx to id and the frame's LRU stamp is unchanged:
//     every link stamps it afresh, so a frame put back in an index since
//     has a new one.

// frameID names one page frame. Zero is the nil frame.
type frameID uint32

const (
	slabShift = 10
	slabSize  = 1 << slabShift
	slabMask  = slabSize - 1
)

type frameSlab [slabSize]page

// frameDir is one published version of the slab directory.
type frameDir []*frameSlab

func (d frameDir) at(id frameID) *page { return &d[id>>slabShift][id&slabMask] }

// frameTable owns the slabs. The directory is republished (copy-on-grow)
// when a slab is added, so readers resolve ids without a lock.
type frameTable struct {
	dir  atomic.Pointer[frameDir]
	mu   sync.Mutex
	free frameID // head of the free list, threaded through page.next
	bump frameID // lowest never-used id; 0 before the first slab exists
}

// load returns the current directory. It covers every frame whose id the
// caller can legitimately hold, provided it is loaded after taking the
// lock (file mu or LRU lock) under which those ids are read.
func (ft *frameTable) load() frameDir {
	if d := ft.dir.Load(); d != nil {
		return *d
	}
	return nil
}

func (ft *frameTable) at(id frameID) *page { return ft.load().at(id) }

// alloc fills dst with unused frames, recycled ones first. The frames'
// fields are garbage; the caller initialises them.
func (ft *frameTable) alloc(dst []frameID) {
	ft.mu.Lock()
	dir := ft.load()
	for i := range dst {
		id := ft.free
		if id != 0 {
			ft.free = dir.at(id).next
		} else {
			if ft.bump&slabMask == 0 {
				dir = ft.grow(dir)
			}
			id = ft.bump
			ft.bump++
		}
		dst[i] = id
	}
	ft.mu.Unlock()
}

// grow appends a slab and publishes the longer directory. Caller holds mu.
func (ft *frameTable) grow(dir frameDir) frameDir {
	if len(dir) == 1<<(32-slabShift) {
		panic("pagecache: frame table full")
	}
	grown := make(frameDir, len(dir)+1)
	copy(grown, dir)
	grown[len(dir)] = new(frameSlab)
	ft.dir.Store(&grown)
	if len(dir) == 0 {
		ft.bump = 1 // frame 0 is the nil frame
	}
	return grown
}

// release returns frames the caller owns to the free list. Zero ids are
// skipped.
func (ft *frameTable) release(ids []frameID) {
	ft.mu.Lock()
	dir := ft.load()
	for _, id := range ids {
		if id == 0 {
			continue
		}
		dir.at(id).next = ft.free
		ft.free = id
	}
	ft.mu.Unlock()
}

// slotTable names long-lived objects (files, tenant accounts) by small
// dense ids so that page frames can refer to them without holding a
// pointer. Slot 0 is never handed out. A released slot keeps its last
// occupant until it is reused, so at never returns nil for a slot that was
// once live — a stale frame reference resolves to *some* object, and the
// re-validation rejects it.
type slotTable[T any] struct {
	tab  atomic.Pointer[[]atomic.Pointer[T]]
	mu   sync.Mutex
	free []uint32
}

func (st *slotTable[T]) at(slot uint32) *T { return (*st.tab.Load())[slot].Load() }

func (st *slotTable[T]) add(v *T) uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var tab []atomic.Pointer[T]
	if p := st.tab.Load(); p != nil {
		tab = *p
	}
	if n := len(st.free); n > 0 {
		slot := st.free[n-1]
		st.free = st.free[:n-1]
		tab[slot].Store(v)
		return slot
	}
	n := len(tab)
	if n == 0 {
		n = 1
	}
	if n < cap(tab) {
		tab = tab[:n+1]
	} else {
		grown := make([]atomic.Pointer[T], n+1, 2*n+6)
		for i := range tab {
			grown[i].Store(tab[i].Load())
		}
		tab = grown
	}
	tab[n].Store(v)
	st.tab.Store(&tab)
	return uint32(n)
}

func (st *slotTable[T]) release(slot uint32) {
	st.mu.Lock()
	st.free = append(st.free, slot)
	st.mu.Unlock()
}

// The per-file page index is a one-level radix of 64-slot nodes keyed by
// idx>>6 — the granule the bitmap words and ledgerBatch already use — so
// a range walk touches one node per 64 pages.
const (
	nodeShift = 6
	nodeSlots = 1 << nodeShift
	nodeMask  = nodeSlots - 1
)

// indexNode maps 64 consecutive page indexes to their frames (0 = absent).
// Nodes are pointer-free and recycled through nodePool when they empty.
type indexNode struct {
	slots [nodeSlots]frameID
	n     int32 // populated slots
}

var nodePool = sync.Pool{New: func() any { return new(indexNode) }}

// slotRange reports which slots [s0, s1) of the node starting at page
// index base fall inside [lo, hi).
func slotRange(base, lo, hi int64) (s0, s1 int) {
	s0, s1 = 0, nodeSlots
	if lo > base {
		s0 = int(lo - base)
	}
	if hi < base+nodeSlots {
		s1 = int(hi - base)
	}
	return s0, s1
}

// nodeAt returns the node covering page indexes [chunk<<6, chunk<<6+64),
// or nil. Caller holds fc.mu.
func (fc *FileCache) nodeAt(chunk int64) *indexNode {
	if uint64(chunk) >= uint64(len(fc.nodes)) { // also rejects a negative chunk
		return nil
	}
	return fc.nodes[chunk]
}

// nodeFor is nodeAt creating the node if absent. Caller holds fc.mu
// exclusive and populates at least one slot.
func (fc *FileCache) nodeFor(chunk int64) *indexNode {
	if n := int64(len(fc.nodes)); chunk >= n {
		grown := make([]*indexNode, max(chunk+1, 2*n))
		copy(grown, fc.nodes)
		fc.nodes = grown
	}
	node := fc.nodes[chunk]
	if node == nil {
		node = nodePool.Get().(*indexNode)
		fc.nodes[chunk] = node
	}
	return node
}

// frameAt returns the frame caching page idx, or 0. Caller holds fc.mu.
func (fc *FileCache) frameAt(idx int64) frameID {
	if node := fc.nodeAt(idx >> nodeShift); node != nil {
		return node.slots[idx&nodeMask]
	}
	return 0
}

// setFrame maps idx to id; the slot must be empty. Caller holds fc.mu
// exclusive.
func (fc *FileCache) setFrame(idx int64, id frameID) {
	node := fc.nodeFor(idx >> nodeShift)
	node.slots[idx&nodeMask] = id
	node.n++
}

// clearFrame unmaps idx, which must be mapped, recycling the node when it
// empties. Caller holds fc.mu exclusive.
func (fc *FileCache) clearFrame(idx int64) {
	chunk := idx >> nodeShift
	node := fc.nodes[chunk]
	node.slots[idx&nodeMask] = 0
	if node.n--; node.n == 0 {
		fc.nodes[chunk] = nil
		nodePool.Put(node)
	}
}

// evictScratch is the per-call working memory of the eviction paths
// (reclaim, tenant reclaim, RemoveRange), pooled so that evicting
// allocates nothing once the slices have grown to the batch size.
type evictScratch struct {
	victims []victim  // frames reclaim claimed off the LRU lists
	frames  []frameID // one file's removed frames, owned until released
	dirty   []frameID // of those, the ones needing writeback
	wasted  []frameID // and the ones evicted with prefetch credit unused
}

var scratchPool = sync.Pool{New: func() any { return new(evictScratch) }}
