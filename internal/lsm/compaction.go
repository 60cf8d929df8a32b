package lsm

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"

	"repro/internal/simtime"
)

// maybeCompact checks compaction triggers and runs work on the compaction
// worker (a background virtual thread, like RocksDB's low-priority pool).
func (db *DB) maybeCompact(tl *simtime.Timeline) {
	if db.opt.DisableAutoCompact {
		return
	}
	for {
		lvl := db.pickCompaction()
		if lvl < 0 {
			return
		}
		var err error
		db.compactWorker.Run(tl.Now(), func(wtl *simtime.Timeline) {
			err = db.compactLevel(wtl, lvl)
		})
		if err != nil {
			// Its inputs are still installed, so the level is picked
			// again after the next flush; retrying now would spin on a
			// fault that persists.
			db.stats.backgroundErrors.Add(1)
			return
		}
	}
}

// pickCompaction returns a level needing compaction, or -1.
func (db *DB) pickCompaction() int {
	v := db.current.Load()
	if len(v.levels[0]) >= l0CompactTrigger {
		return 0
	}
	target := baseLevelMemtables * db.opt.MemtableBytes
	for lvl := 1; lvl < numLevels-1; lvl++ {
		var size int64
		for _, t := range v.levels[lvl] {
			size += t.size
		}
		if size > target {
			return lvl
		}
		target *= levelMultiplier
	}
	return -1
}

// compactLevel merges level lvl inputs with the overlapping tables of
// lvl+1, writing new non-overlapping tables into lvl+1. It is two-phase:
// every input block is read before the first output byte is written. On an
// error nothing is installed: the inputs stay where they are and the
// outputs written so far are removed.
func (db *DB) compactLevel(tl *simtime.Timeline, lvl int) error {
	// Compactions run one at a time (the compaction worker), and only a
	// compaction takes tables out of a version, so the inputs picked here
	// are still installed when the outputs are.
	v := db.current.Load()
	var all []*sstable
	if lvl == 0 {
		all = append(all, v.levels[0]...)
	} else if len(v.levels[lvl]) > 0 {
		// Pick the oldest (first) table at this level.
		all = append(all, v.levels[lvl][0])
	}
	if len(all) == 0 {
		return nil
	}
	lo, hi := all[0].smallest, all[0].largest
	for _, t := range all[1:] {
		if t.smallest < lo {
			lo = t.smallest
		}
		if t.largest > hi {
			hi = t.largest
		}
	}
	for _, t := range v.levels[lvl+1] {
		if t.overlaps(lo, hi) {
			all = append(all, t)
		}
	}

	// Phase one reads: iterate each table's blocks sequentially (this is
	// the scan RocksDB accelerates with its own compaction readahead; here
	// the configured approach's prefetching applies) and merge by (key,
	// seq desc), keeping the newest version of each key.
	m := &db.compactMerge
	m.reset(all)
	defer m.release()
	bytesRead, err := m.plan(tl)
	if err != nil {
		return fmt.Errorf("lsm: compacting L%d, reading inputs: %w", lvl, err)
	}
	db.stats.compactions.Add(1)
	db.stats.compactBytesRead.Add(bytesRead)

	// Phase two writes the survivors, splitting at ~2× memtable size.
	outputs, err := db.writeMerged(tl, m, 2*db.opt.MemtableBytes, lvl+1 == numLevels-1)
	if err != nil {
		for _, t := range outputs {
			_ = db.sys.Kernel().Remove(tl, t.name) // costs space only: never installed
		}
		return fmt.Errorf("lsm: compacting L%d, writing outputs: %w", lvl, err)
	}

	// Install: remove inputs + overlap, add outputs to lvl+1.
	dead := make(map[*sstable]bool, len(all))
	for _, t := range all {
		dead[t] = true
	}
	db.mu.Lock()
	old := db.current.Load()
	nv := &version{levels: old.levels}
	nv.levels[lvl], nv.levels[lvl+1] = nil, nil
	for _, t := range old.levels[lvl] {
		if !dead[t] {
			nv.levels[lvl] = append(nv.levels[lvl], t)
		}
	}
	keep := make([]*sstable, 0, len(old.levels[lvl+1])+len(outputs))
	for _, t := range old.levels[lvl+1] {
		if !dead[t] {
			keep = append(keep, t)
		}
	}
	keep = append(keep, outputs...)
	sort.Slice(keep, func(i, j int) bool { return keep[i].smallest < keep[j].smallest })
	nv.levels[lvl+1] = keep
	db.install(nv, all)
	db.mu.Unlock()

	db.saveManifest(tl)
	db.reapTables(tl)
	return nil
}

// writeMerged replays a planned merge into output tables, each cut once
// it holds maxOut bytes of data blocks. On an error it returns the tables
// already complete, for the caller to remove.
func (db *DB) writeMerged(tl *simtime.Timeline, m *merge, maxOut int64, bottomLevel bool) ([]*sstable, error) {
	var outputs []*sstable
	var out tableOutput
	cut := func() error {
		if out.w == nil {
			return nil
		}
		t, err := db.finishTable(tl, &out)
		if err != nil {
			return err
		}
		out.w = nil
		outputs = append(outputs, t)
		db.stats.compactBytesWritten.Add(t.size)
		return nil
	}
	err := m.replay(func(c *blockCursor) error {
		if c.del && bottomLevel {
			return nil // tombstones die at the bottom
		}
		if err := db.addToTable(tl, &out, &db.compactScratch, c.key, c.value, c.seq, c.del); err != nil {
			return err
		}
		if out.w.size() >= maxOut {
			return cut()
		}
		return nil
	})
	if err == nil {
		err = cut()
	}
	if err != nil {
		db.abortTable(tl, &out)
	}
	return outputs, err
}

// mergeSource is one input table of a merge, walked one block at a time.
// buf holds the block the cursor is in and the next block overwrites it,
// so the cursor's key and value are valid only until the source moves on
// to its next block. buf outlives the merge: the next compaction reuses
// it.
type mergeSource struct {
	table *sstable
	prio  int // lower = newer table, wins on equal key+seq
	buf   []byte
	block int
	cur   blockCursor
	done  bool
}

// seek positions the source at the first entry of block b, reading the
// block into buf: through the table's handle on tl, or, with a nil tl, on
// the host alone (replay, over blocks plan has read). It skips empty
// blocks and sets done past the last one.
func (s *mergeSource) seek(tl *simtime.Timeline, b int) error {
	for ; b < len(s.table.index); b++ {
		if tl == nil {
			s.buf = s.table.rereadBlock(b, s.buf)
		} else {
			raw, err := s.table.readBlock(tl, b, s.buf)
			if err != nil {
				return err
			}
			s.buf = raw
		}
		s.block = b
		if s.cur.first(s.buf) {
			return nil
		}
		if s.cur.corrupt {
			return s.table.corruptBlock(b)
		}
	}
	s.done = true
	return nil
}

// next moves the source one entry on.
func (s *mergeSource) next(tl *simtime.Timeline) error {
	if s.cur.next() {
		return nil
	}
	if s.cur.corrupt {
		return s.table.corruptBlock(s.block)
	}
	return s.seek(tl, s.block+1)
}

type mergeHeap []*mergeSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := &h[i].cur, &h[j].cur
	if a.key != b.key {
		return a.key < b.key
	}
	if a.seq != b.seq {
		return a.seq > b.seq
	}
	return h[i].prio < h[j].prio
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*mergeSource)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// merge k-way merges tables, newest-priority first, dropping shadowed
// versions, in two passes over the same sources. plan does all the reading
// and all the comparing and records, per input entry in merge order, which
// source it came from and whether it survives; replay copies the same
// blocks again on the host and hands the survivors to the writer, so
// nothing of the input or the output exists in memory beyond one block per
// source and the writer's chunk. The compaction worker owns one merge for
// the life of the DB, like compactScratch: the block buffers, steps and
// lastKey are reused by every compaction.
type merge struct {
	sources []mergeSource
	steps   []uint32 // source index << 1 | survives
	lastKey []byte   // plan's newest key, copied: its block gets overwritten
}

// reset makes m a merge of tables, keeping the memory of earlier merges.
// Each source's buffer is sized for the table's largest block.
func (m *merge) reset(tables []*sstable) {
	if n := len(tables); cap(m.sources) < n { // keep every earlier source's buffer
		m.sources = append(m.sources[:cap(m.sources)], make([]mergeSource, n-cap(m.sources))...)
	}
	m.sources = m.sources[:len(tables)]
	var entries int64
	for i, t := range tables {
		var largest int64
		for _, ie := range t.index {
			largest = max(largest, ie.size)
		}
		s := &m.sources[i]
		buf := s.buf
		if int64(cap(buf)) < largest {
			buf = make([]byte, 0, largest)
		}
		*s = mergeSource{table: t, prio: i, buf: buf}
		entries += t.count
	}
	m.steps = slices.Grow(m.steps[:0], int(entries))
}

// release lets go of the tables of the last merge, keeping its buffers.
func (m *merge) release() {
	for i := range m.sources {
		m.sources[i].table = nil
	}
}

// plan runs the merge against the table files and returns the bytes read:
// every data block of every source, each once.
func (m *merge) plan(tl *simtime.Timeline) (int64, error) {
	h := make(mergeHeap, 0, len(m.sources))
	for i := range m.sources {
		s := &m.sources[i]
		if err := s.seek(tl, 0); err != nil {
			return 0, err
		}
		if !s.done {
			h = append(h, s)
		}
	}
	heap.Init(&h)

	m.lastKey = m.lastKey[:0]
	have := false
	for h.Len() > 0 {
		s := h[0]
		step := uint32(s.prio) << 1
		if !have || s.cur.key != string(m.lastKey) {
			step |= 1
			m.lastKey, have = append(m.lastKey[:0], s.cur.key...), true
		}
		m.steps = append(m.steps, step)
		if err := s.next(tl); err != nil {
			return 0, err
		}
		if s.done {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
		tl.Advance(60 * simtime.Nanosecond) // merge CPU per entry
	}
	var bytesRead int64
	for _, s := range m.sources {
		for _, ie := range s.table.index {
			bytesRead += ie.size
		}
	}
	return bytesRead, nil
}

// replay calls emit with every surviving entry, in merge order.
func (m *merge) replay(emit func(c *blockCursor) error) error {
	for i := range m.sources {
		s := &m.sources[i]
		s.done = false
		if err := s.seek(nil, 0); err != nil {
			return err
		}
	}
	for _, step := range m.steps {
		s := &m.sources[step>>1]
		if step&1 != 0 {
			if err := emit(&s.cur); err != nil {
				return err
			}
		}
		if err := s.next(nil); err != nil {
			return err
		}
	}
	return nil
}
