package pagecache

import "sync"

// The frame table is the cache's mem_map: every resident page is one
// value-typed, pointer-free page frame in a fixed-size slab, named by a
// frameID. Slabs are allocated on demand as residency grows (never sized
// to CapacityPages up front) and are never scanned by the garbage
// collector; evicted frames go on a free list threaded through the frames
// themselves and are handed out again, so a steady-state insert→evict
// cycle allocates nothing.
//
// Recycle safety. A frame can be reused the moment it is freed, and it is
// freed only under the cache's lock (Cache.mu). So a frameID means the
// frame it meant for as long as the lock that found it (in an index, on an
// LRU list) is held, and no longer: one hold spans victim selection,
// eviction and writeback, and no frameID outlives it.

// frameID names one page frame. Zero is the nil frame.
type frameID uint32

const (
	slabShift = 10
	slabSize  = 1 << slabShift
	slabMask  = slabSize - 1
)

type frameSlab [slabSize]page

// frameTable owns the slabs. Every method needs the cache's lock.
type frameTable struct {
	slabs []*frameSlab
	free  frameID // head of the free list, threaded through page.next
	bump  frameID // lowest never-used id; 0 before the first slab exists
}

func (ft *frameTable) at(id frameID) *page { return &ft.slabs[id>>slabShift][id&slabMask] }

// alloc fills dst with unused frames, recycled ones first. The frames'
// fields are garbage; the caller initialises them.
func (ft *frameTable) alloc(dst []frameID) {
	for i := range dst {
		id := ft.free
		if id != 0 {
			ft.free = ft.at(id).next
		} else {
			if ft.bump&slabMask == 0 {
				ft.grow()
			}
			id = ft.bump
			ft.bump++
		}
		dst[i] = id
	}
}

// grow appends a slab.
func (ft *frameTable) grow() {
	if len(ft.slabs) == 1<<(32-slabShift) {
		panic("pagecache: frame table full")
	}
	if len(ft.slabs) == 0 {
		ft.bump = 1 // frame 0 is the nil frame
	}
	ft.slabs = append(ft.slabs, new(frameSlab))
}

// release returns frames the caller owns to the free list. Zero ids are
// skipped.
func (ft *frameTable) release(ids []frameID) {
	for _, id := range ids {
		if id == 0 {
			continue
		}
		ft.at(id).next = ft.free
		ft.free = id
	}
}

// slotTable names long-lived objects (files, tenant accounts) by small
// dense ids so that page frames can refer to them without holding a
// pointer. Slot 0 is never handed out. Every method needs the cache's
// lock.
type slotTable[T any] struct {
	tab  []*T
	free []uint32
}

func (st *slotTable[T]) at(slot uint32) *T { return st.tab[slot] }

func (st *slotTable[T]) add(v *T) uint32 {
	if n := len(st.free); n > 0 {
		slot := st.free[n-1]
		st.free = st.free[:n-1]
		st.tab[slot] = v
		return slot
	}
	if len(st.tab) == 0 {
		st.tab = append(st.tab, nil) // slot 0
	}
	st.tab = append(st.tab, v)
	return uint32(len(st.tab) - 1)
}

func (st *slotTable[T]) release(slot uint32) {
	st.tab[slot] = nil
	st.free = append(st.free, slot)
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
// or nil.
func (fc *FileCache) nodeAt(chunk int64) *indexNode {
	if uint64(chunk) >= uint64(len(fc.nodes)) { // also rejects a negative chunk
		return nil
	}
	return fc.nodes[chunk]
}

// nodeFor is nodeAt creating the node if absent. The caller populates at
// least one slot.
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

// frameAt returns the frame caching page idx, or 0.
func (fc *FileCache) frameAt(idx int64) frameID {
	if node := fc.nodeAt(idx >> nodeShift); node != nil {
		return node.slots[idx&nodeMask]
	}
	return 0
}

// setFrame maps idx to id; the slot must be empty.
func (fc *FileCache) setFrame(idx int64, id frameID) {
	node := fc.nodeFor(idx >> nodeShift)
	node.slots[idx&nodeMask] = id
	node.n++
}

// clearFrame unmaps idx, which must be mapped, recycling the node when it
// empties.
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
	victims []frameID // the frames being evicted, owned until released
	dirty   []frameID // of those, the ones needing writeback
	wasted  []frameID // and the ones evicted with prefetch credit unused
}

var scratchPool = sync.Pool{New: func() any { return new(evictScratch) }}
