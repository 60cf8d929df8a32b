package lsm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/crosslib"
	"repro/internal/simtime"
)

const (
	tableMagic  = 0x43726f7353535421 // "CrosSST!"
	footerBytes = 48
	// tableChunk is the unit in which a table reaches its file: the writer
	// hands the file one chunk at offsets 0, 1MB, 2MB, … whatever the block
	// and entry boundaries are.
	tableChunk = 1 << 20
)

// indexEntry locates one data block within an SSTable.
type indexEntry struct {
	firstKey string
	lastKey  string
	off      int64
	size     int64
}

// sstable is an open, immutable on-"disk" table: the file handle plus the
// in-memory index and bloom filter (as RocksDB pins index/filter blocks).
type sstable struct {
	num      uint64
	file     *crosslib.File
	name     string
	index    []indexEntry
	filter   bloom
	count    int64
	size     int64
	smallest string
	largest  string
}

// newTable assembles the in-memory side of a table from its serialized
// index block. Every key of the index is a substring of one copy of raw.
func newTable(num uint64, name string, f *crosslib.File, raw []byte, blocks int, filter bloom, count, size int64) (*sstable, error) {
	t := &sstable{num: num, file: f, name: name, filter: filter, count: count, size: size}
	t.index = make([]indexEntry, 0, blocks)
	keys := string(raw)
	pos := 0
	readKey := func() (string, bool) {
		klen, n := binary.Uvarint(raw[pos:])
		if n <= 0 || klen > uint64(len(raw)-pos-n) {
			return "", false
		}
		k := keys[pos+n : pos+n+int(klen)]
		pos += n + int(klen)
		return k, true
	}
	for pos < len(raw) {
		first, ok1 := readKey()
		last, ok2 := readKey()
		if !ok1 || !ok2 || len(raw)-pos < 16 {
			return nil, fmt.Errorf("lsm: table %s index corrupt", name)
		}
		t.index = append(t.index, indexEntry{
			firstKey: first,
			lastKey:  last,
			off:      int64(binary.LittleEndian.Uint64(raw[pos:])),
			size:     int64(binary.LittleEndian.Uint64(raw[pos+8:])),
		})
		pos += 16
	}
	if len(t.index) > 0 {
		t.smallest = t.index[0].firstKey
		t.largest = t.index[len(t.index)-1].lastKey
	}
	return t, nil
}

// openTable loads a table's footer, index, and filter through the handle.
func openTable(tl *simtime.Timeline, num uint64, name string, f *crosslib.File) (*sstable, error) {
	size := f.Size()
	if size < footerBytes {
		return nil, fmt.Errorf("lsm: table %s too small", name)
	}
	var footer [footerBytes]byte
	if _, err := f.ReadAt(tl, footer[:], size-footerBytes); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[40:]) != tableMagic {
		return nil, fmt.Errorf("lsm: table %s bad magic", name)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[16:]))
	bloomLen := int64(binary.LittleEndian.Uint64(footer[24:]))
	count := int64(binary.LittleEndian.Uint64(footer[32:]))
	if indexOff < 0 || indexLen < 0 || bloomLen < 0 || indexOff+indexLen > size || bloomOff < 0 || bloomOff+bloomLen > size {
		return nil, fmt.Errorf("lsm: table %s footer corrupt", name)
	}

	raw := make([]byte, indexLen)
	if _, err := f.ReadAt(tl, raw, indexOff); err != nil {
		return nil, err
	}
	braw := make([]byte, bloomLen)
	if _, err := f.ReadAt(tl, braw, bloomOff); err != nil {
		return nil, err
	}
	var filter bloom
	if len(braw) > 0 {
		filter = bloomFromBytes(braw[1:], int(braw[0]))
	}
	return newTable(num, name, f, raw, 0, filter, count, size)
}

// tableSink is what a tableWriter writes to: a *crosslib.File, or a
// stand-in where a test measures the writer alone.
type tableSink interface {
	WriteAt(tl *simtime.Timeline, p []byte, off int64) (int, error)
	Fsync(tl *simtime.Timeline) error
}

// writeScratch is the reusable memory of a tableWriter. The flush worker
// and the compaction worker own one each, for the life of the DB; a worker
// runs one job at a time, so a scratch serves one writer at a time.
type writeScratch struct {
	chunk   []byte   // bytes not yet handed to the file, at most tableChunk
	index   []byte   // the index block so far, in its file format
	lastKey []byte   // newest key added
	hashes  []uint64 // bloom hash of every key added
}

// tableWriter streams sorted entries into the block format. No image of
// the table exists: entries are encoded into scratch.chunk, and each time
// the chunk holds tableChunk bytes it is written at the file offset it
// belongs to, so the file receives the same WriteAt calls — offsets and
// lengths — as if a finished image had been cut into tableChunk pieces.
// add makes timeline calls only through those writes.
type tableWriter struct {
	tl         *simtime.Timeline
	dst        tableSink
	s          *writeScratch
	blockBytes int64

	flushed  int64 // bytes handed to dst
	blockOff int64 // file offset of the block being filled
	blocks   int
	count    int64
	err      error // first write error; sticky
}

func newTableWriter(tl *simtime.Timeline, dst tableSink, s *writeScratch, blockBytes int64) *tableWriter {
	s.chunk, s.index, s.hashes = s.chunk[:0], s.index[:0], s.hashes[:0]
	return &tableWriter{tl: tl, dst: dst, s: s, blockBytes: blockBytes}
}

// size reports the bytes written plus the bytes buffered.
func (w *tableWriter) size() int64 { return w.flushed + int64(len(w.s.chunk)) }

// write appends p to the chunk, handing the chunk to the file each time it
// fills.
func (w *tableWriter) write(p []byte) {
	for len(p) > 0 && w.err == nil {
		n := min(tableChunk-len(w.s.chunk), len(p))
		w.s.chunk = append(w.s.chunk, p[:n]...)
		p = p[n:]
		if len(w.s.chunk) == tableChunk {
			w.flushChunk()
		}
	}
}

func (w *tableWriter) flushChunk() {
	if len(w.s.chunk) == 0 || w.err != nil {
		return
	}
	if _, err := w.dst.WriteAt(w.tl, w.s.chunk, w.flushed); err != nil {
		w.err = err
		return
	}
	w.flushed += int64(len(w.s.chunk))
	w.s.chunk = w.s.chunk[:0]
}

// add appends an entry; keys must arrive in (key asc, seq desc) order.
func (w *tableWriter) add(key string, value []byte, seq uint64, del bool) error {
	s := w.s
	if w.size() == w.blockOff { // first entry of a block
		s.index = binary.AppendUvarint(s.index, uint64(len(key)))
		s.index = append(s.index, key...)
	}
	s.lastKey = append(s.lastKey[:0], key...)
	h, _ := bloomHash(key)
	s.hashes = append(s.hashes, h)
	w.count++

	var hdr [2*binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key)))
	w.write(hdr[:n])
	w.write(s.lastKey)
	hdr[0] = 0
	if del {
		hdr[0] = 1
	}
	n = 1 + binary.PutUvarint(hdr[1:], seq)
	n += binary.PutUvarint(hdr[n:], uint64(len(value)))
	w.write(hdr[:n])
	w.write(value)

	if w.size()-w.blockOff >= w.blockBytes {
		w.finishBlock()
	}
	return w.err
}

func (w *tableWriter) finishBlock() {
	size := w.size() - w.blockOff
	if size == 0 {
		return
	}
	s := w.s
	s.index = binary.AppendUvarint(s.index, uint64(len(s.lastKey)))
	s.index = append(s.index, s.lastKey...)
	s.index = binary.LittleEndian.AppendUint64(s.index, uint64(w.blockOff))
	s.index = binary.LittleEndian.AppendUint64(s.index, uint64(size))
	w.blocks++
	w.blockOff += size
}

// finish writes index, filter and footer, syncs the file, and returns the
// filter and the table's size; the index block stays in scratch.index.
func (w *tableWriter) finish(bitsPerKey int) (bloom, int64, error) {
	w.finishBlock()
	filter := newBloomFromHashes(w.s.hashes, bitsPerKey)

	indexOff := w.size()
	w.write(w.s.index)
	bloomOff := w.size()
	w.write([]byte{byte(filter.k)})
	w.write(filter.bits)

	var footer [footerBytes]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:], uint64(bloomOff-indexOff))
	binary.LittleEndian.PutUint64(footer[16:], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[24:], uint64(w.size()-bloomOff))
	binary.LittleEndian.PutUint64(footer[32:], uint64(w.count))
	binary.LittleEndian.PutUint64(footer[40:], tableMagic)
	w.write(footer[:])
	w.flushChunk()
	if w.err == nil {
		w.err = w.dst.Fsync(w.tl)
	}
	return filter, w.flushed, w.err
}

// blockCursor decodes the entries of one raw data block in place: key and
// value point into the block, nothing is copied and nothing is allocated.
// A cursor and everything it hands out are valid for as long as the block
// is neither modified nor recycled. An iterator's blocks are allocated
// fresh and never written again, so its keys and values stay valid for as
// long as they are referenced. A merge recycles: each source reads every
// block into the one buffer the next block overwrites, so whatever the
// merge keeps of an entry past its source's next block it copies (plan's
// lastKey; the table writer copies what replay emits). Get reads into a
// pooled buffer and must copy out what it returns.
type blockCursor struct {
	raw      []byte
	off, end int // the current entry is raw[off:end]
	key      string
	value    []byte
	seq      uint64
	del      bool
	corrupt  bool
}

// first positions the cursor at the first entry of raw.
func (c *blockCursor) first(raw []byte) bool {
	c.raw, c.corrupt = raw, false
	return c.load(0)
}

// next moves to the following entry; false at the end of the block.
func (c *blockCursor) next() bool { return c.load(c.end) }

// load decodes the entry at off. It returns false at the end of the block
// and, with corrupt set, where the bytes are not an entry.
func (c *blockCursor) load(off int) bool {
	raw := c.raw
	if off >= len(raw) {
		c.off, c.end = len(raw), len(raw)
		return false
	}
	pos := off
	klen, n := binary.Uvarint(raw[pos:])
	if n <= 0 || klen >= uint64(len(raw)-pos-n) {
		c.corrupt = true
		return false
	}
	pos += n
	// The block is immutable while the cursor is in use (see above), which
	// is what unsafe.String asks of its bytes.
	c.key = unsafe.String(unsafe.SliceData(raw[pos:]), int(klen))
	pos += int(klen)
	c.del = raw[pos] == 1
	pos++
	seq, n := binary.Uvarint(raw[pos:])
	if n <= 0 {
		c.corrupt = true
		return false
	}
	pos += n
	vlen, n := binary.Uvarint(raw[pos:])
	if n <= 0 || vlen > uint64(len(raw)-pos-n) {
		c.corrupt = true
		return false
	}
	pos += n
	c.seq = seq
	c.value = raw[pos : pos+int(vlen) : pos+int(vlen)]
	c.off, c.end = off, pos+int(vlen)
	return true
}

func (t *sstable) corruptBlock(i int) error {
	return fmt.Errorf("lsm: table %s block %d corrupt", t.name, i)
}

// readBlock fetches data block i through the table's handle, into buf when
// it is large enough.
func (t *sstable) readBlock(tl *simtime.Timeline, i int, buf []byte) ([]byte, error) {
	ie := t.index[i]
	if int64(cap(buf)) < ie.size {
		buf = make([]byte, ie.size)
	}
	buf = buf[:ie.size]
	if _, err := t.file.ReadAt(tl, buf, ie.off); err != nil {
		return nil, err
	}
	return buf, nil
}

// rereadBlock copies data block i into buf on the host alone: no
// timeline, no page cache, no booking. A merge's replay uses it for blocks
// its plan has read through the handle, and gets the same bytes: the
// kernel's copy-out reads the same inode (vfs.File.ReadAt), a finished
// table file is never written again, and a compaction's inputs are removed
// only after it installs.
func (t *sstable) rereadBlock(i int, buf []byte) []byte {
	ie := t.index[i]
	if int64(cap(buf)) < ie.size {
		buf = make([]byte, ie.size)
	}
	buf = buf[:ie.size]
	t.file.Kernel().Inode().ReadAt(buf, ie.off)
	return buf
}

// blockFor returns the index of the block that may contain key, or -1.
func (t *sstable) blockFor(key string) int {
	lo := t.blockForBack(key)
	if lo < 0 || key > t.index[lo].lastKey {
		return -1
	}
	return lo
}

// blockForBack returns the last block whose firstKey <= key (for reverse
// seeks), or -1 when every block starts after key.
func (t *sstable) blockForBack(key string) int {
	lo, hi := 0, len(t.index)-1
	if hi < 0 || key < t.index[0].firstKey {
		return -1
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.index[mid].firstKey <= key {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// blockPool recycles the raw-block buffers of point lookups.
var blockPool = sync.Pool{New: func() any { return new([]byte) }}

// get looks up the newest visible version of key in this table. Entries
// are in (key asc, seq desc) order, so the first match at or below maxSeq
// is the answer. The one value it returns is copied out, so that the block
// buffer can go back to the pool.
func (t *sstable) get(tl *simtime.Timeline, key string, maxSeq uint64) (val []byte, del, ok bool, err error) {
	if !t.filter.mayContain(key) {
		return nil, false, false, nil
	}
	bi := t.blockFor(key)
	if bi < 0 {
		return nil, false, false, nil
	}
	buf := blockPool.Get().(*[]byte)
	defer blockPool.Put(buf)
	raw, err := t.readBlock(tl, bi, *buf)
	if err != nil {
		return nil, false, false, err
	}
	*buf = raw
	var c blockCursor
	for more := c.first(raw); more && c.key <= key; more = c.next() {
		if c.key == key && c.seq <= maxSeq {
			val = make([]byte, len(c.value))
			copy(val, c.value)
			return val, c.del, true, nil
		}
	}
	if c.corrupt {
		return nil, false, false, t.corruptBlock(bi)
	}
	return nil, false, false, nil
}

// overlaps reports whether the table's key range intersects [lo, hi].
func (t *sstable) overlaps(lo, hi string) bool {
	return !(t.largest < lo || (hi != "" && t.smallest > hi))
}
