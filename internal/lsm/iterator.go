package lsm

import (
	"container/heap"
	"sort"

	crossprefetch "repro"
	"repro/internal/simtime"
)

// Iterator merges the memtables and all levels into a single sorted view,
// forward or reverse. Tombstones and shadowed versions are skipped.
// Iterators hold a consistent snapshot of the table set taken at creation:
// a reference on the version, which keeps every table file of the snapshot
// on disk until Close, and a pin on each memtable merged, which keeps its
// slabs from the next memtables until Close. Key and Value point into the
// table block (or the memtable) they were read from and stay valid after
// the iterator moves on; a memtable's value only until Close.
type Iterator struct {
	db      *DB
	tl      *simtime.Timeline
	reverse bool
	snap    uint64
	version *version     // nil once closed
	mems    [2]*memtable // pinned until Close

	sources []*iterSource
	h       iterHeap

	key   string
	value []byte
	valid bool
	err   error // the first failed or corrupt block read; ends the scan

	appReadahead bool // APPonly: issue explicit readahead on table scans
}

// iterSource yields (key, value, seq, del) in iteration order.
type iterSource struct {
	prio int

	// Memtable snapshot form.
	mem []memEntry
	pos int // index into mem; in the table form, into offs

	// Table form: cur walks the raw block it was last loaded with, a fresh
	// allocation per block that is never written again. A reverse source
	// also keeps the offset of every entry of that block, to step back.
	table *sstable
	block int
	cur   blockCursor
	offs  []uint32

	done bool
}

func (s *iterSource) current() (string, []byte, uint64, bool) {
	if s.mem != nil {
		e := s.mem[s.pos]
		return e.key, e.value, e.seq, e.del
	}
	return s.cur.key, s.cur.value, s.cur.seq, s.cur.del
}

// NewIterator returns a forward or reverse iterator. The caller must Close
// it: until then the tables of its snapshot cannot be removed.
func (db *DB) NewIterator(tl *simtime.Timeline, reverse bool) *Iterator {
	db.mu.RLock()
	v := db.current.Load()
	v.refs.Add(1)
	it := &Iterator{db: db, tl: tl, reverse: reverse, snap: db.seq, version: v}
	a := db.sys.Approach()
	it.appReadahead = a == crossprefetch.AppOnly || a == crossprefetch.AppOnlyFincore

	prio := 0
	addMem := func(m *memtable) {
		if m == nil || m.count == 0 {
			return
		}
		entries := make([]memEntry, 0, m.count)
		for n := m.first(); n != nil; n = n.next[0] {
			entries = append(entries, n.memEntry)
		}
		m.pins.Add(1)
		it.mems[prio] = m
		it.sources = append(it.sources, &iterSource{prio: prio, mem: entries})
		prio++
	}
	addMem(db.mem)
	addMem(db.imm)
	db.mu.RUnlock()
	for _, t := range v.levels[0] {
		it.sources = append(it.sources, &iterSource{prio: prio, table: t})
		prio++
	}
	for _, lvl := range v.levels[1:] {
		for _, t := range lvl {
			it.sources = append(it.sources, &iterSource{prio: prio, table: t})
		}
		prio++
	}
	return it
}

// Close releases the iterator's snapshot. It is safe to call twice. A
// memtable it pinned that has been flushed meanwhile is left to the
// collector: its blocks were kept out of the spares when it was released.
func (it *Iterator) Close() {
	if it.version != nil {
		it.version.unpin()
		it.version = nil
		it.valid = false
		for i, m := range it.mems {
			if m != nil {
				m.pins.Add(-1)
				it.mems[i] = nil
			}
		}
	}
}

// fail keeps the first error of the scan and ends the source that hit it.
// A table that merely dropped out of the merge would let the scan go on
// without its keys, or with a key its tombstone had deleted; Next checks
// err instead.
func (it *Iterator) fail(s *iterSource, err error) bool {
	if it.err == nil {
		it.err = err
	}
	s.done = true
	return false
}

// loadBlock positions a table source at the given block, reading it: at
// the block's first entry, or in a reverse iterator at its last.
func (it *Iterator) loadBlock(s *iterSource, block int) bool {
	if block < 0 || block >= len(s.table.index) || it.version == nil || it.err != nil {
		s.done = true
		return false
	}
	if it.appReadahead && !it.reverse && block%16 == 0 {
		// The APPonly application compensates for its disabled OS
		// readahead with explicit readahead(2) on scans (RocksDB's
		// iterator readahead), clamped by the kernel as in Figure 1.
		ie := s.table.index[block]
		s.table.file.Readahead(it.tl, ie.off, 2<<20)
	}
	raw, err := s.table.readBlock(it.tl, block, nil)
	if err != nil {
		return it.fail(s, err)
	}
	if !s.cur.first(raw) {
		if s.cur.corrupt {
			return it.fail(s, s.table.corruptBlock(block))
		}
		s.done = true
		return false
	}
	s.block = block
	if it.reverse {
		s.offs = s.offs[:0]
		for more := true; more; more = s.cur.next() {
			s.offs = append(s.offs, uint32(s.cur.off))
		}
		if s.cur.corrupt {
			return it.fail(s, s.table.corruptBlock(block))
		}
		s.pos = len(s.offs) - 1
		s.cur.load(int(s.offs[s.pos]))
	}
	return true
}

// step moves a forward table source one entry on, into the next block
// where this one ends.
func (it *Iterator) step(s *iterSource) bool {
	if s.cur.next() {
		return true
	}
	if s.cur.corrupt {
		return it.fail(s, s.table.corruptBlock(s.block))
	}
	return it.loadBlock(s, s.block+1)
}

// keyBefore returns the key of the entry preceding a reverse table
// source's cursor within its block.
func (s *iterSource) keyBefore() string {
	prev := blockCursor{raw: s.cur.raw}
	prev.load(int(s.offs[s.pos-1]))
	return prev.key
}

// settleReverse positions a reverse source at the FIRST (newest, since
// entries sort by key asc then seq desc) version of the key group its
// cursor is in. Without this, walking backward would surface a key's
// oldest version first — resurrecting overwritten values and hiding
// puts that followed deletes.
func (it *Iterator) settleReverse(s *iterSource) {
	if s.mem != nil {
		for s.pos > 0 && s.mem[s.pos-1].key == s.mem[s.pos].key {
			s.pos--
		}
		return
	}
	for {
		for s.pos > 0 && s.keyBefore() == s.cur.key {
			s.pos--
			s.cur.load(int(s.offs[s.pos]))
		}
		if s.pos > 0 || s.block == 0 {
			return
		}
		// The group may continue into the previous block.
		if s.table.index[s.block-1].lastKey != s.cur.key {
			return
		}
		if !it.loadBlock(s, s.block-1) {
			return
		}
	}
}

// advance moves a source one entry in iteration order.
func (it *Iterator) advance(s *iterSource) {
	if it.reverse {
		s.pos--
		if s.pos < 0 {
			if s.mem != nil {
				s.done = true
				return
			}
			if !it.loadBlock(s, s.block-1) {
				return
			}
		} else if s.mem == nil {
			s.cur.load(int(s.offs[s.pos]))
		}
		it.settleReverse(s)
		return
	}
	if s.mem != nil {
		if s.pos++; s.pos >= len(s.mem) {
			s.done = true
		}
		return
	}
	it.step(s)
}

type iterHeap struct {
	srcs    []*iterSource
	reverse bool
}

func (h iterHeap) Len() int { return len(h.srcs) }
func (h iterHeap) Less(i, j int) bool {
	ak, _, as, _ := h.srcs[i].current()
	bk, _, bs, _ := h.srcs[j].current()
	if ak != bk {
		if h.reverse {
			return ak > bk
		}
		return ak < bk
	}
	if as != bs {
		return as > bs // newer version first in both directions
	}
	return h.srcs[i].prio < h.srcs[j].prio
}
func (h iterHeap) Swap(i, j int) { h.srcs[i], h.srcs[j] = h.srcs[j], h.srcs[i] }
func (h *iterHeap) Push(x any)   { h.srcs = append(h.srcs, x.(*iterSource)) }
func (h *iterHeap) Pop() any {
	old := h.srcs
	n := len(old)
	x := old[n-1]
	h.srcs = old[:n-1]
	return x
}

// SeekFirst positions at the smallest key (forward) and returns validity.
func (it *Iterator) SeekFirst() bool { return it.seekEnd() }

// SeekLast positions at the largest key (reverse iterators).
func (it *Iterator) SeekLast() bool { return it.seekEnd() }

// seekEnd initializes all sources at their start in iteration order.
func (it *Iterator) seekEnd() bool {
	it.h = iterHeap{reverse: it.reverse}
	for _, s := range it.sources {
		s.done = false
		if s.mem != nil {
			if it.reverse {
				s.pos = len(s.mem) - 1
			} else {
				s.pos = 0
			}
		} else if !it.loadBlock(s, it.startBlock(s)) {
			continue
		}
		if !s.done {
			if it.reverse {
				it.settleReverse(s)
			}
			it.h.srcs = append(it.h.srcs, s)
		}
	}
	heap.Init(&it.h)
	it.valid = true
	return it.Next()
}

func (it *Iterator) startBlock(s *iterSource) int {
	if it.reverse {
		return len(s.table.index) - 1
	}
	return 0
}

// SeekBack positions a reverse iterator at the last key ≤ target.
func (it *Iterator) SeekBack(target string) bool {
	it.h = iterHeap{reverse: it.reverse}
	for _, s := range it.sources {
		s.done = false
		if s.mem != nil {
			// First index > target, minus one.
			i := sort.Search(len(s.mem), func(i int) bool { return s.mem[i].key > target })
			s.pos = i - 1
			if s.pos < 0 {
				continue
			}
		} else {
			bi := s.table.blockForBack(target)
			if bi < 0 {
				continue // whole table > target
			}
			if !it.loadBlock(s, bi) {
				continue
			}
			for s.pos >= 0 && s.cur.key > target {
				if s.pos--; s.pos >= 0 {
					s.cur.load(int(s.offs[s.pos]))
				}
			}
			if s.pos < 0 {
				if !it.loadBlock(s, s.block-1) {
					continue
				}
			}
		}
		if !s.done {
			it.settleReverse(s)
			it.h.srcs = append(it.h.srcs, s)
		}
	}
	heap.Init(&it.h)
	it.valid = true
	return it.Next()
}

// Seek positions the iterator at the first key ≥ target (forward only).
func (it *Iterator) Seek(target string) bool {
	it.h = iterHeap{reverse: it.reverse}
	for _, s := range it.sources {
		s.done = false
		if s.mem != nil {
			s.pos = sort.Search(len(s.mem), func(i int) bool { return s.mem[i].key >= target })
			if s.pos >= len(s.mem) {
				continue
			}
		} else {
			bi := s.table.blockFor(target)
			if bi < 0 {
				if len(s.table.index) == 0 || s.table.smallest > target {
					bi = 0
				} else {
					continue // whole table < target
				}
			}
			if !it.loadBlock(s, bi) {
				continue
			}
			for !s.done && s.cur.key < target {
				it.step(s)
			}
		}
		if !s.done {
			it.h.srcs = append(it.h.srcs, s)
		}
	}
	heap.Init(&it.h)
	it.valid = true
	return it.Next()
}

// Next advances to the next live key in iteration order. It returns false
// at the end, and from the first error on (see Err): the entry in hand when
// a source fails is still the merge's next, the ones after it are not.
func (it *Iterator) Next() bool {
	if !it.valid {
		return false
	}
	for it.err == nil && it.h.Len() > 0 {
		s := it.h.srcs[0]
		k, v, seq, del := s.current()
		// Advance this source and restore heap order.
		it.advance(s)
		if s.done {
			heap.Pop(&it.h)
		} else {
			heap.Fix(&it.h, 0)
		}
		it.tl.Advance(80 * simtime.Nanosecond)
		if seq > it.snap {
			continue
		}
		if k == it.key && it.key != "" {
			continue // shadowed older version
		}
		it.key = k
		if del {
			continue
		}
		it.value = v
		return true
	}
	it.valid = false
	return false
}

// Err returns the error that ended the scan early, if one did: after Next
// or a seek returns false, a caller that needs every key checks it.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key.
func (it *Iterator) Key() string { return it.key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.value }
