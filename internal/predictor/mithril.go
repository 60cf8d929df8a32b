package predictor

import (
	"repro/internal/slab"
	"repro/internal/telemetry"
)

// MITHRIL-style association miner (Yang et al., SoCC '17): instead of
// extrapolating a stream, it learns which blocks *follow* which — the
// sporadic, history-based correlations a sequentiality counter is blind
// to (LSM point lookups walking index→filter→data blocks, chained
// fragments of one logical object). Accesses accumulate in a bounded
// per-inode history ring; every mineEvery observations the ring is mined
// lazily for (head → successor-within-lookahead) pairs; predictions read
// the association table directly. The table is memory-capped with a
// FIFO-approximated LRU rotation, so one inode can never hold more than
// MaxAssoc entries however long it lives.

// MithrilConfig carries the miner's tunable; start from
// DefaultMithrilConfig.
type MithrilConfig struct {
	// MaxAssoc caps the association-table entries; the oldest-inserted
	// entry is rotated out beyond the cap.
	MaxAssoc int
}

// DefaultMithrilConfig returns the default tuning.
func DefaultMithrilConfig() MithrilConfig {
	return MithrilConfig{MaxAssoc: 512}
}

// The miner's fixed tuning.
const (
	// historyLen bounds the per-inode access-history ring.
	historyLen = 64
	// mineEvery is the lazy-mining period in observations.
	mineEvery = 16
	// lookahead is how many ring successors of each access are mined as
	// associated.
	lookahead = 4
	// minSupport is the times a successor must recur before predicted.
	minSupport = 2
	// mithrilMaxBlocks clamps each predicted candidate's size.
	mithrilMaxBlocks = 16
	// entrySlabMin is the first entry slab's length.
	entrySlabMin = 8
)

// assocSuccessors bounds the successors remembered per head block.
const assocSuccessors = 4

// assocEntry is one head block's mined successors, in first-mined order
// (deterministic: the table map is never iterated).
type assocEntry struct {
	succ  [assocSuccessors]int64
	count [assocSuccessors]int32
	n     int
}

// Mithril is the association-mining arm. Not synchronized; the owning
// ensemble serializes calls.
type Mithril struct {
	cfg MithrilConfig

	hist    []histRec // ring of recent accesses
	total   int64     // records ever written; hist[total%len] is next
	minedTo int64     // records already mined (as successors)

	table map[int64]*assocEntry
	// fifo mirrors the table's keys in insertion order as a ring of
	// exactly len(table) live slots starting at fhead: the eviction queue.
	fifo   []int64
	fhead  int
	fcount int
	// entries holds the new heads' entries. Its blocks double from
	// entrySlabMin up to what the table still lacks, so filling MaxAssoc
	// entries takes a handful of allocations.
	entries slab.Slab[assocEntry]

	sinceMine int
	mined     int64
}

type histRec struct {
	lo, blocks int64
}

// NewMithril returns a miner with the given tuning.
func NewMithril(cfg MithrilConfig) *Mithril {
	return &Mithril{
		cfg:   cfg,
		hist:  make([]histRec, historyLen),
		table: make(map[int64]*assocEntry, cfg.MaxAssoc),
		fifo:  make([]int64, cfg.MaxAssoc),
	}
}

// Name implements Arm.
func (m *Mithril) Name() string { return telemetry.ArmMithril.String() }

// TableLen reports the live association entries (for the admin plane).
func (m *Mithril) TableLen() int { return len(m.table) }

// Mined reports how many lazy mining passes have run.
func (m *Mithril) Mined() int64 { return m.mined }

// Observe implements Arm: record the access, mine lazily when due, and
// predict the learned successors of this block.
func (m *Mithril) Observe(lo, blocks int64, dst []Candidate) []Candidate {
	// Predict BEFORE recording: associations learned from earlier visits,
	// not from the pair this access is about to form.
	if e := m.table[lo]; e != nil {
		sz := blocks
		if sz > mithrilMaxBlocks {
			sz = mithrilMaxBlocks
		}
		if sz < 1 {
			sz = 1
		}
		// Emit only successors competitive with the strongest: a head's
		// dominant association is the real pattern; weaker co-occurrences
		// are interleaving noise that books shadow pages nobody reads and
		// sinks the arm's bandit score with pollution.
		var max int32
		for i := 0; i < e.n; i++ {
			if e.count[i] > max {
				max = e.count[i]
			}
		}
		for i := 0; i < e.n; i++ {
			if e.count[i] >= minSupport && e.count[i]*2 >= max && e.succ[i] != lo {
				dst = append(dst, Candidate{Lo: e.succ[i], Blocks: sz})
			}
		}
	}

	m.hist[m.total%int64(len(m.hist))] = histRec{lo: lo, blocks: blocks}
	m.total++

	m.sinceMine++
	if m.sinceMine >= mineEvery {
		m.sinceMine = 0
		m.mine()
	}
	return dst
}

// mine credits each (head → successor-within-lookahead) pair exactly
// once: only records that arrived since the previous pass act as
// successors, with heads reaching up to lookahead behind them. (Re-mining
// the whole ring would re-credit every surviving pair each pass, inflating
// one-off interleavings past minSupport.) Forward continuations within
// the head's extension window are skipped — the counter arm owns those,
// and mining them would waste table capacity re-learning what
// extrapolation gets for free.
func (m *Mithril) mine() {
	m.mined++
	ln := int64(len(m.hist))
	oldest := m.total - ln
	for t := m.minedTo; t < m.total; t++ {
		s := m.hist[t%ln]
		h := t - lookahead
		if h < oldest {
			h = oldest
		}
		if h < 0 {
			h = 0
		}
		for ; h < t; h++ {
			rec := m.hist[h%ln]
			if d := s.lo - rec.lo; d >= 0 && d <= rec.blocks*lookahead {
				// Repeat or forward continuation within the head's natural
				// extension window: extrapolation (the counter arm) owns
				// those, not association mining.
				continue
			}
			m.credit(rec.lo, s.lo)
		}
	}
	m.minedTo = m.total
}

// credit bumps the head→succ association, inserting (with capacity
// rotation) as needed.
func (m *Mithril) credit(head, succ int64) {
	e := m.table[head]
	if e == nil {
		if m.fcount >= m.cfg.MaxAssoc {
			e = m.evictOne() // a full table inserts into the entry it rotates out
		}
		if e == nil {
			// Entries leave the table only through evictOne, which hands
			// them to the insertion that displaced them, so every entry
			// carved is live and the table lacks MaxAssoc-fcount more.
			e = &m.entries.Take(1, entrySlabMin, m.cfg.MaxAssoc-m.fcount)[0]
		}
		m.table[head] = e
		m.fifo[(m.fhead+m.fcount)%len(m.fifo)] = head
		m.fcount++
	}
	for i := 0; i < e.n; i++ {
		if e.succ[i] == succ {
			if e.count[i] < 1<<30 {
				e.count[i]++
			}
			return
		}
	}
	if e.n < assocSuccessors {
		e.succ[e.n], e.count[e.n] = succ, 1
		e.n++
		return
	}
	// Successor slots full: decay the weakest so a persistent new pattern
	// can eventually displace a stale one.
	weak := 0
	for i := 1; i < e.n; i++ {
		if e.count[i] < e.count[weak] {
			weak = i
		}
	}
	if e.count[weak] > 1 {
		e.count[weak]--
	} else {
		e.succ[weak], e.count[weak] = succ, 1
	}
}

// evictOne rotates out the oldest-inserted table entry (FIFO approximates
// LRU well enough here: heads recur on their natural access cadence, so
// insertion age tracks recency for live patterns) and returns it, zeroed,
// for the insertion that displaced it to reuse.
func (m *Mithril) evictOne() *assocEntry {
	if m.fcount == 0 {
		return nil
	}
	head := m.fifo[m.fhead]
	e := m.table[head]
	delete(m.table, head)
	m.fhead = (m.fhead + 1) % len(m.fifo)
	m.fcount--
	*e = assocEntry{}
	return e
}
