package lsm

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/crosslib"
	"repro/internal/simtime"
)

const tableMagic = 0x43726f7353535421 // "CrosSST!"

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

// tableBuilder accumulates sorted entries into the block format.
type tableBuilder struct {
	blockBytes int64

	buf      []byte // current data block
	blockOff int64
	firstKey string
	lastKey  string

	out      []byte // whole file image
	index    []indexEntry
	keys     []string
	count    int64
	smallest string
	largest  string
}

func newTableBuilder(blockBytes int64) *tableBuilder {
	if blockBytes <= 0 {
		blockBytes = 16 << 10
	}
	return &tableBuilder{blockBytes: blockBytes}
}

// add appends an entry; keys must arrive in (key asc, seq desc) order.
func (b *tableBuilder) add(key string, value []byte, seq uint64, del bool) {
	if b.count == 0 {
		b.smallest = key
	}
	b.largest = key
	if len(b.buf) == 0 {
		b.firstKey = key
	}
	b.lastKey = key
	b.keys = append(b.keys, key)
	b.count++

	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	b.buf = append(b.buf, tmp[:n]...)
	b.buf = append(b.buf, key...)
	flags := byte(0)
	if del {
		flags = 1
	}
	b.buf = append(b.buf, flags)
	n = binary.PutUvarint(tmp[:], seq)
	b.buf = append(b.buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(value)))
	b.buf = append(b.buf, tmp[:n]...)
	b.buf = append(b.buf, value...)

	if int64(len(b.buf)) >= b.blockBytes {
		b.finishBlock()
	}
}

func (b *tableBuilder) finishBlock() {
	if len(b.buf) == 0 {
		return
	}
	b.index = append(b.index, indexEntry{
		firstKey: b.firstKey,
		lastKey:  b.lastKey,
		off:      b.blockOff,
		size:     int64(len(b.buf)),
	})
	b.out = append(b.out, b.buf...)
	b.blockOff += int64(len(b.buf))
	b.buf = b.buf[:0]
}

// finish serializes index, filter, and footer, returning the file image
// and the in-memory table metadata.
func (b *tableBuilder) finish(bitsPerKey int) ([]byte, []indexEntry, bloom) {
	b.finishBlock()
	filter := newBloomFromKeys(b.keys, bitsPerKey)

	indexOff := int64(len(b.out))
	var tmp [binary.MaxVarintLen64]byte
	for _, ie := range b.index {
		n := binary.PutUvarint(tmp[:], uint64(len(ie.firstKey)))
		b.out = append(b.out, tmp[:n]...)
		b.out = append(b.out, ie.firstKey...)
		n = binary.PutUvarint(tmp[:], uint64(len(ie.lastKey)))
		b.out = append(b.out, tmp[:n]...)
		b.out = append(b.out, ie.lastKey...)
		var fixed [16]byte
		binary.LittleEndian.PutUint64(fixed[0:], uint64(ie.off))
		binary.LittleEndian.PutUint64(fixed[8:], uint64(ie.size))
		b.out = append(b.out, fixed[:]...)
	}
	indexLen := int64(len(b.out)) - indexOff

	bloomOff := int64(len(b.out))
	b.out = append(b.out, byte(filter.k))
	b.out = append(b.out, filter.bits...)
	bloomLen := int64(len(b.out)) - bloomOff

	var footer [48]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:], uint64(indexLen))
	binary.LittleEndian.PutUint64(footer[16:], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[24:], uint64(bloomLen))
	binary.LittleEndian.PutUint64(footer[32:], uint64(b.count))
	binary.LittleEndian.PutUint64(footer[40:], tableMagic)
	b.out = append(b.out, footer[:]...)
	return b.out, b.index, filter
}

// writeTable persists a built table image through the given handle.
func writeTable(tl *simtime.Timeline, f *crosslib.File, image []byte) error {
	const chunk = 1 << 20
	for off := 0; off < len(image); off += chunk {
		end := off + chunk
		if end > len(image) {
			end = len(image)
		}
		if _, err := f.WriteAt(tl, image[off:end], int64(off)); err != nil {
			return err
		}
	}
	return f.Fsync(tl)
}

// openTable loads a table's footer, index, and filter through the handle.
func openTable(tl *simtime.Timeline, num uint64, name string, f *crosslib.File) (*sstable, error) {
	size := f.Size()
	if size < 48 {
		return nil, fmt.Errorf("lsm: table %s too small", name)
	}
	var footer [48]byte
	if _, err := f.ReadAt(tl, footer[:], size-48); err != nil {
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

	t := &sstable{num: num, file: f, name: name, count: count, size: size}

	raw := make([]byte, indexLen)
	if _, err := f.ReadAt(tl, raw, indexOff); err != nil {
		return nil, err
	}
	for pos := 0; pos < len(raw); {
		klen, n := binary.Uvarint(raw[pos:])
		pos += n
		first := string(raw[pos : pos+int(klen)])
		pos += int(klen)
		klen, n = binary.Uvarint(raw[pos:])
		pos += n
		last := string(raw[pos : pos+int(klen)])
		pos += int(klen)
		off := int64(binary.LittleEndian.Uint64(raw[pos:]))
		sz := int64(binary.LittleEndian.Uint64(raw[pos+8:]))
		pos += 16
		t.index = append(t.index, indexEntry{firstKey: first, lastKey: last, off: off, size: sz})
	}
	if len(t.index) > 0 {
		t.smallest = t.index[0].firstKey
		t.largest = t.index[len(t.index)-1].lastKey
	}

	braw := make([]byte, bloomLen)
	if _, err := f.ReadAt(tl, braw, bloomOff); err != nil {
		return nil, err
	}
	if len(braw) > 0 {
		t.filter = bloomFromBytes(braw[1:], int(braw[0]))
	}
	return t, nil
}

// blockEntry is one decoded entry of a data block.
type blockEntry struct {
	key   string
	value []byte
	seq   uint64
	del   bool
}

// readBlock fetches and decodes data block i through the table's handle.
func (t *sstable) readBlock(tl *simtime.Timeline, i int) ([]blockEntry, error) {
	ie := t.index[i]
	raw := make([]byte, ie.size)
	if _, err := t.file.ReadAt(tl, raw, ie.off); err != nil {
		return nil, err
	}
	var entries []blockEntry
	for pos := 0; pos < len(raw); {
		klen, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("lsm: table %s block %d corrupt", t.name, i)
		}
		pos += n
		key := string(raw[pos : pos+int(klen)])
		pos += int(klen)
		del := raw[pos] == 1
		pos++
		seq, n := binary.Uvarint(raw[pos:])
		pos += n
		vlen, n := binary.Uvarint(raw[pos:])
		pos += n
		val := raw[pos : pos+int(vlen)]
		pos += int(vlen)
		entries = append(entries, blockEntry{key: key, value: val, seq: seq, del: del})
	}
	return entries, nil
}

// blockFor returns the index of the block that may contain key, or -1.
func (t *sstable) blockFor(key string) int {
	// Binary search for the last block whose firstKey <= key.
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
	if key > t.index[lo].lastKey {
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

// get looks up the newest visible version of key in this table. It seeks
// through the raw block comparing key bytes in place — entries are in
// (key asc, seq desc) order — instead of decoding every entry the way
// readBlock does for iterators, and copies out the one value it returns
// so that the block buffer can go back to the pool.
func (t *sstable) get(tl *simtime.Timeline, key string, maxSeq uint64) (val []byte, del, ok bool, err error) {
	if !t.filter.mayContain(key) {
		return nil, false, false, nil
	}
	bi := t.blockFor(key)
	if bi < 0 {
		return nil, false, false, nil
	}
	ie := t.index[bi]
	buf := blockPool.Get().(*[]byte)
	defer blockPool.Put(buf)
	if int64(cap(*buf)) < ie.size {
		*buf = make([]byte, ie.size)
	}
	raw := (*buf)[:ie.size]
	if _, err := t.file.ReadAt(tl, raw, ie.off); err != nil {
		return nil, false, false, err
	}
	for pos := 0; pos < len(raw); {
		klen, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			return nil, false, false, fmt.Errorf("lsm: table %s block %d corrupt", t.name, bi)
		}
		pos += n
		k := raw[pos : pos+int(klen)] // compared in place: string(k) below does not allocate
		pos += int(klen)
		entryDel := raw[pos] == 1
		pos++
		seq, n := binary.Uvarint(raw[pos:])
		pos += n
		vlen, n := binary.Uvarint(raw[pos:])
		pos += n
		if string(k) == key && seq <= maxSeq {
			val = make([]byte, vlen)
			copy(val, raw[pos:])
			return val, entryDel, true, nil
		}
		if string(k) > key {
			break
		}
		pos += int(vlen)
	}
	return nil, false, false, nil
}

// overlaps reports whether the table's key range intersects [lo, hi].
func (t *sstable) overlaps(lo, hi string) bool {
	return !(t.largest < lo || (hi != "" && t.smallest > hi))
}
