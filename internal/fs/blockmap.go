package fs

// groupBlocks is how many logical blocks one group of a block map covers:
// 2MB at 4KB blocks.
const groupBlocks = 512

// blockMap maps a file's logical blocks to physical blocks, groupBlocks at
// a time. Blocks past its last group are unmapped. A synthetic file or an
// extent-layout append keeps every group linear, so the map costs one
// group per 2MB of file; a group that a remap or a hole made explicit
// costs its 4KB table on top, however few of its blocks the file has.
type blockMap []group

// group maps groupBlocks consecutive logical blocks. While phys is nil the
// group is linear: block i maps to base+i for i < n and is unmapped from n
// on. The first set that breaks that gives the group an explicit table,
// which it keeps.
type group struct {
	base, n int64
	phys    *[groupBlocks]int64 // block i -> physical block, unmapped if absent
}

func (g *group) lookup(i int64) int64 {
	switch {
	case g.phys != nil:
		return g.phys[i]
	case i < g.n:
		return g.base + i
	}
	return unmapped
}

// set maps blocks [i, i+k) of the group to p, p+1, ..., p+k-1.
func (g *group) set(i, p, k int64) {
	if g.phys == nil {
		switch {
		case i == 0 && k >= g.n: // covers the whole mapped prefix
			g.base, g.n = p, k
			return
		case i <= g.n && p == g.base+i: // extends it in line
			g.n = max(g.n, i+k)
			return
		}
		t := new([groupBlocks]int64)
		for j := range t {
			t[j] = g.lookup(int64(j))
		}
		g.phys = t
	}
	for j := int64(0); j < k; j++ {
		g.phys[i+j] = p + j
	}
}

// lookup returns the physical block of logical block blk, or unmapped.
func (m blockMap) lookup(blk int64) int64 {
	if blk/groupBlocks >= int64(len(m)) {
		return unmapped
	}
	return m[blk/groupBlocks].lookup(blk % groupBlocks)
}

// set maps logical blocks [blk, blk+n) to physical blocks p, p+1, ...,
// p+n-1, growing the map to cover them.
func (m *blockMap) set(blk, p, n int64) {
	if hi := (blk + n + groupBlocks - 1) / groupBlocks; hi > int64(len(*m)) {
		*m = append(*m, make([]group, hi-int64(len(*m)))...)
	}
	for n > 0 {
		i := blk % groupBlocks
		k := min(n, groupBlocks-i)
		(*m)[blk/groupBlocks].set(i, p, k)
		blk, p, n = blk+k, p+k, n-k
	}
}

// truncate unmaps every block from keep on.
func (m *blockMap) truncate(keep int64) {
	if n := (keep + groupBlocks - 1) / groupBlocks; n < int64(len(*m)) {
		clear((*m)[n:])
		*m = (*m)[:n]
	}
	i := keep % groupBlocks
	if i == 0 || keep/groupBlocks >= int64(len(*m)) {
		return
	}
	g := &(*m)[keep/groupBlocks]
	if g.phys == nil {
		g.n = min(g.n, i)
		return
	}
	for ; i < groupBlocks; i++ {
		g.phys[i] = unmapped
	}
}

// appendRuns appends the physical runs backing logical blocks [lo, hi) to
// runs, coalescing logically and physically contiguous blocks across
// groups just as a walk of one block at a time would. A linear group's
// mapped prefix is one step.
func (m blockMap) appendRuns(runs []PhysRun, lo, hi int64) []PhysRun {
	first := len(runs)
	lo = max(lo, 0)
	hi = min(hi, int64(len(m))*groupBlocks)
	for lo < hi {
		g := &m[lo/groupBlocks]
		base := lo - lo%groupBlocks
		end := min(hi, base+groupBlocks)
		if g.phys == nil {
			if i := lo - base; i < g.n {
				runs = addRun(runs, first, lo, g.base+i, min(end, base+g.n)-lo)
			}
			lo = end
			continue
		}
		for ; lo < end; lo++ {
			if p := g.phys[lo-base]; p != unmapped {
				runs = addRun(runs, first, lo, p, 1)
			}
		}
	}
	return runs
}

// addRun appends a run, or extends the last run appended since index
// first if the new one continues it both logically and physically.
func addRun(runs []PhysRun, first int, logical, phys, count int64) []PhysRun {
	if n := len(runs); n > first {
		if r := &runs[n-1]; r.Logical+r.Count == logical && r.Phys+r.Count == phys {
			r.Count += count
			return runs
		}
	}
	return append(runs, PhysRun{Logical: logical, Phys: phys, Count: count})
}
