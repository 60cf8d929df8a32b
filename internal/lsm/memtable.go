// Package lsm implements a from-scratch log-structured merge-tree
// key-value store in the spirit of RocksDB/LevelDB, used as the paper's
// production-application workload (§5.3). It runs entirely on the
// simulated stack: the WAL and SSTables are files on the simulated file
// system, read and written through the configured approach's I/O path, so
// every paper comparison (APPonly's disabled readahead, OSonly's
// incremental windows, CROSS-LIB's cross-layered prefetching) applies to
// the database exactly as it would to RocksDB on a patched kernel.
//
// The store has the standard shape: a write-ahead log, an in-memory
// skiplist memtable, size-tiered L0 plus leveled L1+, block-based SSTables
// with per-table block indexes and bloom filters, background flush and
// compaction on virtual worker threads, and merge iterators (forward and
// reverse) over the whole tree.
package lsm

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/slab"
)

const maxHeight = 12

// memEntry is one memtable node payload.
type memEntry struct {
	key   string
	value []byte
	seq   uint64
	del   bool
}

type skipNode struct {
	memEntry
	next [maxHeight]*skipNode
}

// memtable is a single-writer-locked skiplist keyed by (key asc, seq desc):
// the newest version of a key comes first.
type memtable struct {
	head   *skipNode
	height int
	rng    *rand.Rand
	bytes  int64
	count  int

	// values and nodes are the memtable's slabs: values grow from slabMin
	// to slabMax bytes and nodes from nodeSlabMin to nodeSlabMax, so a
	// memtable of any size costs a handful of allocations for all its
	// entries. A value is never written again once copied. A DB's
	// memtables recycle their slabs: once a flush has installed the
	// memtable's table, release gives its blocks to the next memtable
	// (DESIGN §17).
	values slab.Slab[byte]
	nodes  slab.Slab[skipNode]

	// pins counts the open iterators that merged this memtable's entries:
	// their values point into its slabs, so release keeps the blocks of a
	// pinned memtable out of the spares.
	pins atomic.Int32
}

const (
	slabMin     = 4 << 10
	slabMax     = 256 << 10
	nodeSlabMin = 16
	nodeSlabMax = 1 << 10
)

// copyValue returns a private copy of v, capped at its length so that an
// append by whoever receives it from get cannot reach a neighbour.
func (m *memtable) copyValue(v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	if len(v) > slabMax/4 {
		return append([]byte(nil), v...)
	}
	dst := m.values.Take(len(v), slabMin, slabMax)
	copy(dst, v)
	return dst
}

func newMemtable(seed int64) *memtable {
	return &memtable{head: &skipNode{}, height: 1, rng: rand.New(rand.NewSource(seed))}
}

// memSpares holds the slab blocks of flushed memtables for the next ones.
type memSpares struct {
	values slab.Spares[byte]
	nodes  slab.Spares[skipNode]
}

// newRecyclingMemtable is newMemtable carving from sp before it allocates.
func newRecyclingMemtable(seed int64, sp *memSpares) *memtable {
	m := newMemtable(seed)
	m.values.Recycle(&sp.values)
	m.nodes.Recycle(&sp.nodes)
	return m
}

// release gives the memtable's slab blocks to its spares, unless an
// iterator still holds its entries. The caller guarantees that nothing
// else reads the memtable again: its table is installed and it is no
// longer reachable from the DB.
func (m *memtable) release() {
	if m.pins.Load() == 0 {
		m.values.Release()
		m.nodes.Release()
	}
}

func (m *memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// less orders by key ascending, then seq descending (newer first).
func entryLess(aKey string, aSeq uint64, bKey string, bSeq uint64) bool {
	if aKey != bKey {
		return aKey < bKey
	}
	return aSeq > bSeq
}

// put inserts a version, copying value. The caller serializes writers.
func (m *memtable) put(key string, value []byte, seq uint64, del bool) {
	var prev [maxHeight]*skipNode
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && entryLess(x.next[lvl].key, x.next[lvl].seq, key, seq) {
			x = x.next[lvl]
		}
		prev[lvl] = x
	}
	h := m.randomHeight()
	if h > m.height {
		for lvl := m.height; lvl < h; lvl++ {
			prev[lvl] = m.head
		}
		m.height = h
	}
	n := &m.nodes.Take(1, nodeSlabMin, nodeSlabMax)[0]
	n.memEntry = memEntry{key: key, value: m.copyValue(value), seq: seq, del: del}
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = n
	}
	m.bytes += int64(len(key) + len(value) + 16)
	m.count++
}

// get returns the newest version of key at or below maxSeq.
func (m *memtable) get(key string, maxSeq uint64) (value []byte, del, ok bool) {
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && entryLess(x.next[lvl].key, x.next[lvl].seq, key, maxSeq) {
			x = x.next[lvl]
		}
	}
	n := x.next[0]
	if n != nil && n.key == key && n.seq <= maxSeq {
		return n.value, n.del, true
	}
	return nil, false, false
}

// first returns the first node (smallest key, newest version).
func (m *memtable) first() *skipNode { return m.head.next[0] }
