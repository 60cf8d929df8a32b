// Package fs implements the simulated file systems beneath the page cache.
//
// Two layout policies are provided, matching the paper's evaluation targets:
//
//   - LayoutExtent models ext4: files get contiguous physical extents when
//     possible, metadata updates pay a journal transaction, and overwrites
//     are in place.
//   - LayoutLog models F2FS: every block write is appended at the log head,
//     so random writes become physically sequential while overwritten
//     blocks are remapped.
//
// The file system stores real data for written blocks (the LSM store and
// compression workloads depend on content round-tripping) but keeps
// never-written blocks of synthetic files unmaterialized, so experiments
// can use multi-gigabyte logical files without the host RAM to match. A
// file's written bytes live on its inode, in chunks of several blocks. Its
// block map costs 24 bytes per 2MB run of blocks that are mapped in line,
// as a synthetic file's and an extent-layout append's are: a 200GB file
// costs about 2.4MB of map, not the 400MB of one entry per block. A 2MB
// group that a remap or a hole breaks costs a 4KB table more, even in a
// file of a few blocks (blockmap.go).
// Timing is charged by the callers (the VFS layer) using the physical-run
// mapping this package exposes; only metadata operations charge time here,
// via the journal ledger.
package fs

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/simtime"
)

// Layout selects the block allocation policy.
type Layout int

const (
	// LayoutExtent is the ext4-like in-place, extent-based layout.
	LayoutExtent Layout = iota
	// LayoutLog is the F2FS-like log-structured layout.
	LayoutLog
)

// String names the layout.
func (l Layout) String() string {
	if l == LayoutLog {
		return "f2fs"
	}
	return "ext4"
}

const unmapped = int64(-1)

// chunkBlocks is how many blocks of a file's data one heap object holds:
// 32KB at 4KB blocks, twice the 16KB writes fig6 scatters over a synthetic
// file, so such writes hold at most twice what they wrote. At most 64,
// the bits of chunk.written.
const chunkBlocks = 8

// FS is a simulated file system instance on one device. mu guards the
// namespace, the allocator, the free list and every inode's size, map and
// data: every exported method of FS and Inode takes it, and the unexported
// ones run with it held.
type FS struct {
	layout    Layout
	blockSize int64

	mu       sync.Mutex
	files    map[string]*Inode
	byID     map[int64]*Inode
	nextIno  int64
	nextPhys int64      // bump allocator / log head
	free     freeChunks // data of chunks their inodes dropped, for WriteAt

	journal *simtime.Ledger
	costs   simtime.Costs
}

// New returns an empty file system with the given layout and block size.
func New(layout Layout, blockSize int64, costs simtime.Costs) *FS {
	if blockSize <= 0 {
		blockSize = 4096
	}
	return &FS{
		layout:    layout,
		blockSize: blockSize,
		files:     make(map[string]*Inode),
		byID:      make(map[int64]*Inode),
		journal:   simtime.NewLedger(layout.String() + ".journal"),
		costs:     costs,
	}
}

// Layout reports the allocation policy.
func (f *FS) Layout() Layout { return f.layout }

// BlockSize reports the file system block size.
func (f *FS) BlockSize() int64 { return f.blockSize }

// Inode is a simulated file; its fields past name are under fs.mu.
type Inode struct {
	fs   *FS
	id   int64
	name string

	size   int64
	blocks blockMap // logical block -> physical block
	chunks []chunk  // logical block index / chunkBlocks -> its written bytes
}

// chunk holds the written bytes of chunkBlocks consecutive logical blocks.
// A block whose bit is clear has never been written since it was mapped:
// it reads as the filler of its physical block, or as zeros if unmapped.
type chunk struct {
	written uint64 // bit i: block i of the chunk is in data
	data    []byte // chunkBlocks blocks, taken by the first write
}

// ID reports the inode number.
func (ino *Inode) ID() int64 { return ino.id }

// Name reports the file's path.
func (ino *Inode) Name() string { return ino.name }

// Size reports the file size in bytes.
func (ino *Inode) Size() int64 {
	ino.fs.mu.Lock()
	defer ino.fs.mu.Unlock()
	return ino.size
}

// Blocks reports the file size in whole blocks (rounded up).
func (ino *Inode) Blocks() int64 {
	return (ino.Size() + ino.fs.blockSize - 1) / ino.fs.blockSize
}

// metadataOp charges a journal transaction for metadata-updating layouts.
// F2FS-like layouts log metadata with data and pay roughly half the cost.
func (f *FS) metadataOp(tl *simtime.Timeline) {
	if tl == nil {
		return
	}
	cost := f.costs.JournalOp
	if f.layout == LayoutLog {
		cost /= 2
	}
	f.journal.Use(tl, cost)
}

// Create creates an empty file, charging a metadata transaction.
func (f *FS) Create(tl *simtime.Timeline, name string) (*Inode, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[name]; ok {
		return nil, fmt.Errorf("fs: create %s: file exists", name)
	}
	f.nextIno++
	ino := &Inode{fs: f, id: f.nextIno, name: name}
	f.files[name] = ino
	f.byID[ino.id] = ino
	f.metadataOp(tl)
	return ino, nil
}

// InodeByID looks up an inode by number, or nil for a deleted/unknown
// file. The page cache's writeback hook uses it to map a dirty run's
// logical blocks to device offsets.
func (f *FS) InodeByID(id int64) *Inode {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.byID[id]
}

// CreateSynthetic creates a file of the given logical size whose blocks are
// fully mapped (contiguous under LayoutExtent) but hold no materialized
// data: reads return deterministic filler. This is how microbenchmarks get
// paper-scale (hundreds of GB logical) files without host RAM.
func (f *FS) CreateSynthetic(tl *simtime.Timeline, name string, size int64) (*Inode, error) {
	ino, err := f.Create(tl, name)
	if err != nil {
		return nil, err
	}
	nblocks := (size + f.blockSize - 1) / f.blockSize
	f.mu.Lock()
	ino.size = size
	ino.blocks.set(0, f.allocRun(nblocks), nblocks)
	f.mu.Unlock()
	return ino, nil
}

// Open looks up an existing file.
func (f *FS) Open(name string) (*Inode, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: open %s: no such file", name)
	}
	return ino, nil
}

// Remove deletes a file and gives its materialized data to the free list.
func (f *FS) Remove(tl *simtime.Timeline, name string) error {
	f.mu.Lock()
	ino, ok := f.files[name]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("fs: remove %s: no such file", name)
	}
	delete(f.files, name)
	delete(f.byID, ino.id)
	f.free.put(ino.chunks)
	ino.blocks, ino.chunks = nil, nil
	ino.size = 0
	f.mu.Unlock()
	f.metadataOp(tl)
	return nil
}

// List returns all file names, sorted.
func (f *FS) List() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.files))
	for n := range f.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FileCount reports the number of files.
func (f *FS) FileCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.files)
}

// allocRun reserves n physical blocks. Under both layouts the bump
// allocator yields contiguous runs; the layouts differ in *when* they
// allocate (extent: once per file region, in place thereafter; log: on
// every write).
func (f *FS) allocRun(n int64) int64 {
	start := f.nextPhys
	f.nextPhys += n
	return start
}

// PhysRun is a contiguous run of physical blocks backing a contiguous run
// of logical blocks.
type PhysRun struct {
	Logical int64 // first logical block
	Phys    int64 // first physical block
	Count   int64
}

// MapRange returns the physical runs backing logical blocks [lo, hi),
// coalescing physically contiguous blocks. Unmapped (hole) blocks are
// omitted; callers treat them as zero-fill without device I/O.
func (ino *Inode) MapRange(lo, hi int64) []PhysRun { return ino.AppendMapRange(nil, lo, hi) }

// AppendMapRange is MapRange appending to runs, for callers on a read path
// that bring their own (typically stack) storage.
func (ino *Inode) AppendMapRange(runs []PhysRun, lo, hi int64) []PhysRun {
	ino.fs.mu.Lock()
	defer ino.fs.mu.Unlock()
	return ino.blocks.appendRuns(runs, lo, hi)
}

// writtenBlock returns the bytes of block blk if it has been written since
// it was mapped, else nil.
func (ino *Inode) writtenBlock(blk int64) []byte {
	i := blk / chunkBlocks
	if i >= int64(len(ino.chunks)) || ino.chunks[i].written&(1<<(blk%chunkBlocks)) == 0 {
		return nil
	}
	bs := ino.fs.blockSize
	return ino.chunks[i].data[blk%chunkBlocks*bs:][:bs]
}

// WriteAt writes data at byte offset off, allocating blocks according to
// the layout policy and extending the file size as needed. It returns the
// number of newly allocated blocks (callers charge metadata time when > 0).
func (ino *Inode) WriteAt(data []byte, off int64) (newBlocks int64) {
	if len(data) == 0 {
		return 0
	}
	bs := ino.fs.blockSize
	ino.fs.mu.Lock()
	defer ino.fs.mu.Unlock()

	end := off + int64(len(data))
	lo, hi := off/bs, (end+bs-1)/bs
	// Only the first and the last block can be partly written. The bytes a
	// write leaves untouched are what the block held before: its filler
	// until it is first written. A log-layout overwrite remaps the block to
	// the log head and carries them over.
	fillLo, fillHi := ino.blocks.lookup(lo), ino.blocks.lookup(hi-1)
	newBlocks = ino.allocate(lo, hi)
	if fillLo == unmapped {
		fillLo = ino.blocks.lookup(lo)
	}
	if fillHi == unmapped {
		fillHi = ino.blocks.lookup(hi - 1)
	}
	if n := (hi+chunkBlocks-1)/chunkBlocks - int64(len(ino.chunks)); n > 0 {
		ino.chunks = append(ino.chunks, make([]chunk, n)...)
	}
	ino.size = max(ino.size, end)

	for pos := off; pos < end; {
		blk, blkOff := pos/bs, pos%bs
		n := min(bs-blkOff, end-pos)
		c := &ino.chunks[blk/chunkBlocks]
		if c.data == nil {
			c.data = ino.fs.free.get(int(chunkBlocks * bs))
		}
		bit := uint64(1) << (blk % chunkBlocks)
		b := c.data[blk%chunkBlocks*bs:][:bs]
		if c.written&bit == 0 && n != bs {
			filler := fillHi
			if blk == lo {
				filler = fillLo
			}
			fillSynthetic(b, filler)
		}
		c.written |= bit
		copy(b[blkOff:], data[pos-off:pos-off+n])
		pos += n
	}
	return newBlocks
}

// allocate maps the blocks of [lo, hi) a write needs: the unmapped ones,
// or under the log layout all of them. Each maximal run of them takes one
// allocRun, so blocks are numbered in block order. It returns how many it
// mapped.
func (ino *Inode) allocate(lo, hi int64) (n int64) {
	if ino.fs.layout == LayoutLog {
		ino.blocks.set(lo, ino.fs.allocRun(hi-lo), hi-lo)
		return hi - lo
	}
	for blk := lo; blk < hi; {
		if ino.blocks.lookup(blk) != unmapped {
			blk++
			continue
		}
		run := int64(1)
		for blk+run < hi && ino.blocks.lookup(blk+run) == unmapped {
			run++
		}
		ino.blocks.set(blk, ino.fs.allocRun(run), run)
		n += run
		blk += run
	}
	return n
}

// ReadAt fills dst with file content starting at byte offset off, stopping
// at EOF. Unmaterialized blocks yield deterministic filler derived from
// the physical block number. It returns the number of bytes read.
func (ino *Inode) ReadAt(dst []byte, off int64) int {
	bs := ino.fs.blockSize
	ino.fs.mu.Lock()
	defer ino.fs.mu.Unlock()
	if off >= ino.size {
		return 0
	}
	end := min(off+int64(len(dst)), ino.size)
	for pos := off; pos < end; {
		blk, blkOff := pos/bs, pos%bs
		n := min(bs-blkOff, end-pos)
		out := dst[pos-off : pos-off+n]
		if b := ino.writtenBlock(blk); b != nil {
			copy(out, b[blkOff:])
		} else if p := ino.blocks.lookup(blk); p != unmapped {
			fillSyntheticAt(out, p, blkOff)
		} else {
			clear(out)
		}
		pos += n
	}
	return int(end - off)
}

// Truncate sets the file size, discarding mappings beyond it.
func (ino *Inode) Truncate(tl *simtime.Timeline, size int64) {
	bs := ino.fs.blockSize
	ino.fs.mu.Lock()
	keep := (size + bs - 1) / bs
	ino.blocks.truncate(keep)
	// The free list takes over the chunk tables it is given, so it gets
	// copies of the dropped entries: the inode keeps its own table.
	if n := (keep + chunkBlocks - 1) / chunkBlocks; n < int64(len(ino.chunks)) {
		ino.fs.free.put(slices.Clone(ino.chunks[n:]))
		clear(ino.chunks[n:])
		ino.chunks = ino.chunks[:n]
	}
	if tail := keep % chunkBlocks; tail != 0 && keep/chunkBlocks < int64(len(ino.chunks)) {
		i := keep / chunkBlocks
		c := &ino.chunks[i]
		if c.written &= 1<<tail - 1; c.written == 0 {
			ino.fs.free.put(slices.Clone(ino.chunks[i : i+1]))
			c.data = nil
		}
	}
	ino.size = size
	ino.fs.mu.Unlock()
	ino.fs.metadataOp(tl)
}

// fillSynthetic writes the deterministic filler pattern for an
// unmaterialized block.
func fillSynthetic(dst []byte, phys int64) { fillSyntheticAt(dst, phys, 0) }

// fillLanes is the pos half of the filler's 256-byte period, a word at a
// time: byte j of word w is byte(8w+j), which never carries into the next.
var fillLanes = func() (lanes [32]uint64) {
	for w := range lanes {
		lanes[w] = 0x0706050403020100 + 0x0101010101010101*uint64(8*w)
	}
	return lanes
}()

// fillSyntheticAt fills dst with the filler of the block at phys from byte
// off on. Byte pos is byte(x >> (8*(pos%8))) ^ byte(pos), which for a fixed
// block repeats every 256 bytes of pos. It runs on every copy-out of
// never-written file content, so it builds that period once on the stack
// (x against fillLanes, a word at a time), copies it into dst from phase
// off%256, and doubles what dst holds until it is full: the bulk moves at
// copy speed.
func fillSyntheticAt(dst []byte, phys, off int64) {
	x := uint64(phys)*0x9e3779b97f4a7c15 + 1
	var period [256]byte
	for w := range fillLanes { // by index: a value range copies the table
		binary.LittleEndian.PutUint64(period[8*w:], x^fillLanes[w])
	}
	phase := uint64(off) % 256
	n := copy(dst, period[phase:])
	n += copy(dst[n:], period[:phase])
	for n < len(dst) {
		n += copy(dst[n:], dst[:n])
	}
}

// JournalStats exposes journal contention counters (metadata-heavy
// workloads like the mongodb filebench profile stress this).
func (f *FS) JournalStats() simtime.LedgerStats { return f.journal.Stats() }
