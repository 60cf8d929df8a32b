package lsm

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/simtime"
	"repro/internal/vfs"
)

// Options configures a DB.
type Options struct {
	// Sys is the simulated system whose approach governs all table I/O.
	Sys *crossprefetch.System
	// Dir prefixes all database file names.
	Dir string
	// MemtableBytes is the flush threshold (RocksDB: 64MB; scaled down).
	MemtableBytes int64
	// BlockBytes is the SSTable data-block size, 16KB by default: this
	// repository's choice (RocksDB's block_size defaults to 4KB).
	BlockBytes int64
	// DisableAutoCompact turns background compaction off (tests).
	DisableAutoCompact bool
}

func (o Options) withDefaults() Options {
	if o.Dir == "" {
		o.Dir = "db"
	}
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = 16 << 10
	}
	return o
}

// The tree's shape. L0 compacts once it holds l0CompactTrigger tables; L1's
// size target is baseLevelMemtables memtables and each level below it
// levelMultiplier× the one above; every table carries a filter of
// bloomBitsPerKey bits per key.
const (
	numLevels          = 7
	l0CompactTrigger   = 4
	baseLevelMemtables = 4
	levelMultiplier    = 10
	bloomBitsPerKey    = 10
)

// version is one immutable view of the table set: L0 newest-first, L1+
// sorted by smallest key and non-overlapping. Installing the result of a
// flush or a compaction builds a new version (the level slices it does not
// change are shared) and swaps DB.current under DB.mu; nothing reachable
// from a version is ever written again.
//
// Lifetime: the DB holds one reference on the current version, every
// reader that goes on to touch table files holds one from pin to unpin.
// pin takes it under DB.mu's read side, which excludes the swap, so a
// version that has been replaced never gains a reference. A table's file
// may be removed only once every version older than the one that dropped
// the table has lost all its references; reapTables decides that, and it
// alone removes table files.
type version struct {
	levels [numLevels][]*sstable
	id     uint64
	refs   atomic.Int64
}

func (v *version) unpin() { v.refs.Add(-1) }

// zombie is a table no longer in the current version whose file is still
// on disk: versions with id < droppedAt may hold it.
type zombie struct {
	table     *sstable
	droppedAt uint64
}

// DB is the LSM store.
type DB struct {
	opt Options
	sys *crossprefetch.System

	mu      sync.RWMutex
	mem     *memtable
	imm     *memtable
	current atomic.Pointer[version] // stored under mu; loaded anywhere
	retired []*version              // replaced while readers still held them
	zombies []zombie
	wal     *crosslib.File
	walName string
	seq     uint64
	nextNum uint64
	// flushFailed marks imm as parked by a failed flush: it stays readable
	// and is retried by Flush, by Close, and each time the active memtable
	// grows by another MemtableBytes.
	flushFailed bool
	// spares holds the slab blocks of flushed memtables, which the next
	// memtables carve from; used under mu's write side.
	spares memSpares

	walMu  sync.Mutex // serializes log appends and guards walBuf
	walBuf []byte

	flushWorker    *simtime.Worker
	compactWorker  *simtime.Worker
	flushScratch   writeScratch // flush jobs only
	compactScratch writeScratch // compaction jobs only
	compactMerge   merge        // compaction jobs only
	fincoreRR      int
	loadEnd        simtime.Time

	stats struct {
		puts, gets, hits, flushes, compactions            atomic.Int64
		compactBytesRead, compactBytesWritten, blockReads atomic.Int64
		backgroundErrors                                  atomic.Int64
	}
}

// Stats counts DB-level operations.
type Stats struct {
	Puts, Gets, Hits    int64
	Flushes             int64
	Compactions         int64
	CompactBytesRead    int64
	CompactBytesWritten int64
	BlockReads          int64
	// BackgroundErrors counts flushes and compactions that failed on an
	// I/O error and left their inputs in place for a retry.
	BackgroundErrors int64
}

// Stats snapshots DB counters.
func (db *DB) Stats() Stats {
	s := &db.stats
	return Stats{
		Puts: s.puts.Load(), Gets: s.gets.Load(), Hits: s.hits.Load(),
		Flushes:             s.flushes.Load(),
		Compactions:         s.compactions.Load(),
		CompactBytesRead:    s.compactBytesRead.Load(),
		CompactBytesWritten: s.compactBytesWritten.Load(),
		BlockReads:          s.blockReads.Load(),
		BackgroundErrors:    s.backgroundErrors.Load(),
	}
}

// pin returns the current version with a reference held; the caller unpins
// it when it has made its last read of a table file.
func (db *DB) pin() *version {
	db.mu.RLock()
	v := db.current.Load()
	v.refs.Add(1)
	db.mu.RUnlock()
	return v
}

// install makes v the current version; dropped are the tables the old one
// had and v has not. Caller holds db.mu.
func (db *DB) install(v *version, dropped []*sstable) {
	old := db.current.Load()
	v.id = old.id + 1
	v.refs.Store(1)
	db.current.Store(v)
	if old.refs.Add(-1) > 0 {
		db.retired = append(db.retired, old)
	}
	for _, t := range dropped {
		db.zombies = append(db.zombies, zombie{t, v.id})
	}
}

// reapTables removes the files of dropped tables that no version still
// referenced can hold. Background jobs call it on their own timeline after
// the manifest that no longer names the tables is saved; with no reader
// holding an old version that is every table the job just dropped.
func (db *DB) reapTables(tl *simtime.Timeline) {
	db.mu.Lock()
	db.retired = slices.DeleteFunc(db.retired, func(v *version) bool { return v.refs.Load() == 0 })
	oldest := db.current.Load().id
	for _, v := range db.retired {
		oldest = min(oldest, v.id)
	}
	var dead []*sstable
	db.zombies = slices.DeleteFunc(db.zombies, func(z zombie) bool {
		if z.droppedAt > oldest {
			return false
		}
		dead = append(dead, z.table)
		return true
	})
	db.mu.Unlock()
	for _, t := range dead {
		// Only the file's space is at stake: the manifest no longer names it.
		_ = db.sys.Kernel().Remove(tl, t.name)
	}
}

// Open creates or reopens a database. Reopening replays the manifest and
// the write-ahead log.
func Open(tl *simtime.Timeline, opt Options) (*DB, error) {
	opt = opt.withDefaults()
	db := &DB{
		opt:           opt,
		sys:           opt.Sys,
		flushWorker:   simtime.NewWorker(tl.Now()),
		compactWorker: simtime.NewWorker(tl.Now()),
	}
	db.mem = newRecyclingMemtable(1, &db.spares)
	first := new(version)
	first.refs.Store(1)
	db.current.Store(first)
	if err := db.loadManifest(tl); err != nil {
		return nil, err
	}
	if err := db.openWAL(tl); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) fileName(kind string, num uint64) string {
	return fmt.Sprintf("%s/%06d.%s", db.opt.Dir, num, kind)
}

// openSSTFile opens a table file with the approach-appropriate hints:
// the APPonly application (like RocksDB, §3.1) distrusts OS readahead and
// disables it on every table it opens.
func (db *DB) openSSTFile(tl *simtime.Timeline, name string) (*crosslib.File, error) {
	f, err := db.sys.Open(tl, name)
	if err != nil {
		return nil, err
	}
	a := db.sys.Approach()
	if a == crossprefetch.AppOnly || a == crossprefetch.AppOnlyFincore {
		f.Fadvise(tl, vfs.AdvRandom, 0, 0)
	}
	return f, nil
}

// Put writes a key/value pair.
func (db *DB) Put(tl *simtime.Timeline, key string, value []byte) error {
	return db.write(tl, key, value, false)
}

// Delete removes a key (writes a tombstone).
func (db *DB) Delete(tl *simtime.Timeline, key string) error {
	return db.write(tl, key, nil, true)
}

func (db *DB) write(tl *simtime.Timeline, key string, value []byte, del bool) error {
	limit := db.opt.MemtableBytes
	db.mu.Lock()
	db.seq++
	seq := db.seq
	wal := db.wal
	before := db.mem.bytes
	db.mem.put(key, value, seq, del)
	tl.Advance(300 * simtime.Nanosecond) // skiplist insert
	full := db.mem.bytes >= limit && db.imm == nil
	if full {
		db.imm = db.mem
		db.mem = newRecyclingMemtable(int64(seq), &db.spares)
	}
	retry := !full && db.flushFailed && before/limit != db.mem.bytes/limit
	db.mu.Unlock()
	db.stats.puts.Add(1)

	db.walMu.Lock()
	db.walBuf = appendWALRecord(db.walBuf[:0], key, value, seq, del)
	_, err := wal.Append(tl, db.walBuf)
	db.walMu.Unlock()
	if err != nil {
		return err
	}
	if full || retry {
		// The write itself is done — logged, and readable from the
		// memtable; a flush that fails is counted and retried.
		_ = db.scheduleFlush(tl)
	}
	return nil
}

// Get returns the newest value of key, or ok=false. The slice it returns
// is the caller's.
func (db *DB) Get(tl *simtime.Timeline, key string) ([]byte, bool, error) {
	db.mu.RLock()
	snap := db.seq
	// Probe the memtables while still holding the lock: the active
	// skiplist is mutated by writers under the write lock, so an
	// unlocked traversal races with put's pointer splicing. A hit is
	// copied under the lock too: once a flush has installed the
	// memtable's table, its slabs carry the next memtable's values.
	v, del, ok := db.mem.get(key, snap)
	if !ok && db.imm != nil {
		v, del, ok = db.imm.get(key, snap)
	}
	if ok && !del {
		v = append([]byte(nil), v...)
	}
	var ver *version
	if !ok {
		// Taken in the same critical section as the probe of imm, so a
		// flushed memtable is seen either there or as its L0 table.
		ver = db.current.Load()
		ver.refs.Add(1)
	}
	db.mu.RUnlock()

	db.stats.gets.Add(1)
	tl.Advance(200 * simtime.Nanosecond)

	if ok {
		return db.hit(v, del)
	}
	defer ver.unpin()
	for _, t := range ver.levels[0] {
		v, del, ok, err := db.tableGet(tl, t, key, snap)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return db.hit(v, del)
		}
	}
	for _, tables := range ver.levels[1:] {
		// Levels 1+ are sorted and non-overlapping: binary search.
		i := sort.Search(len(tables), func(i int) bool { return tables[i].largest >= key })
		if i < len(tables) && tables[i].smallest <= key {
			v, del, ok, err := db.tableGet(tl, tables[i], key, snap)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return db.hit(v, del)
			}
		}
	}
	return nil, false, nil
}

func (db *DB) hit(v []byte, del bool) ([]byte, bool, error) {
	if del {
		return nil, false, nil
	}
	db.stats.hits.Add(1)
	return v, true, nil
}

func (db *DB) tableGet(tl *simtime.Timeline, t *sstable, key string, snap uint64) ([]byte, bool, bool, error) {
	tl.Advance(150 * simtime.Nanosecond) // bloom + index probe
	v, del, ok, err := t.get(tl, key, snap)
	if ok {
		db.stats.blockReads.Add(1)
	}
	return v, del, ok, err
}

// MultiGet reads a batch of consecutive keys starting at startKey — the
// db_bench multireadrandom shape (batched-but-random, §3.4).
func (db *DB) MultiGet(tl *simtime.Timeline, keys []string) (found int, err error) {
	for _, k := range keys {
		_, ok, err := db.Get(tl, k)
		if err != nil {
			return found, err
		}
		if ok {
			found++
		}
	}
	return found, nil
}

// Flush forces the active memtable to an L0 table synchronously.
func (db *DB) Flush(tl *simtime.Timeline) error {
	db.mu.Lock()
	for db.imm != nil {
		// A memtable is already queued, or parked by a failed flush: it
		// goes first, inline.
		db.mu.Unlock()
		if err := db.scheduleFlush(tl); err != nil {
			return err
		}
		db.mu.Lock()
	}
	if db.mem.count == 0 {
		db.mu.Unlock()
		return nil
	}
	db.imm = db.mem
	db.mem = newRecyclingMemtable(int64(db.seq+1), &db.spares)
	db.mu.Unlock()
	err := db.scheduleFlush(tl)
	tl.WaitUntil(db.flushWorker.Now(), simtime.WaitIO)
	return err
}

// scheduleFlush writes the immutable memtable out on the flush worker. On
// an error the memtable stays where it is — readable, and still in the
// log — for a later attempt.
func (db *DB) scheduleFlush(tl *simtime.Timeline) error {
	var flushErr error
	db.flushWorker.Run(tl.Now(), func(wtl *simtime.Timeline) {
		db.mu.Lock()
		imm, retried := db.imm, db.flushFailed
		db.mu.Unlock()
		if imm == nil {
			return
		}
		t, err := db.buildTableFromMem(wtl, imm)
		if err != nil {
			flushErr = fmt.Errorf("lsm: flush: %w", err)
		}
		db.mu.Lock()
		db.flushFailed = err != nil
		if err == nil {
			if t != nil {
				old := db.current.Load()
				v := &version{levels: old.levels}
				v.levels[0] = append([]*sstable{t}, old.levels[0]...)
				db.install(v, nil)
				db.stats.flushes.Add(1)
			}
			db.imm = nil
			imm.release()
		}
		db.mu.Unlock()
		switch {
		case err != nil:
			db.stats.backgroundErrors.Add(1)
		case retried:
			// Writes that followed the failed attempt went to the
			// active memtable and to this log: it has to outlive them.
			db.saveManifest(wtl)
		default:
			db.saveManifest(wtl)
			db.rotateWAL(wtl)
		}
		db.maybeCompact(wtl)
	})
	return flushErr
}

// buildTableFromMem writes one memtable as an SSTable and opens it.
func (db *DB) buildTableFromMem(tl *simtime.Timeline, m *memtable) (*sstable, error) {
	var out tableOutput
	db.flushScratch.hashes = slices.Grow(db.flushScratch.hashes[:0], m.count)
	for n := m.first(); n != nil; n = n.next[0] {
		if err := db.addToTable(tl, &out, &db.flushScratch, n.key, n.value, n.seq, n.del); err != nil {
			db.abortTable(tl, &out)
			return nil, err
		}
	}
	if out.w == nil {
		return nil, nil
	}
	return db.finishTable(tl, &out)
}

// tableOutput is a table file being written.
type tableOutput struct {
	w    *tableWriter // nil until the first entry
	num  uint64
	name string
}

// addToTable appends an entry to out, creating the file — with the next
// file number — at the first one.
func (db *DB) addToTable(tl *simtime.Timeline, out *tableOutput, s *writeScratch, key string, value []byte, seq uint64, del bool) error {
	if out.w == nil {
		db.mu.Lock()
		db.nextNum++
		out.num = db.nextNum
		db.mu.Unlock()
		out.name = db.fileName("sst", out.num)
		f, err := db.sys.Create(tl, out.name)
		if err != nil {
			return err
		}
		out.w = newTableWriter(tl, f, s, db.opt.BlockBytes)
	}
	return out.w.add(key, value, seq, del)
}

// finishTable completes the file of out and opens a read handle on it. On
// an error the file is removed.
func (db *DB) finishTable(tl *simtime.Timeline, out *tableOutput) (*sstable, error) {
	w := out.w
	filter, size, err := w.finish(bloomBitsPerKey)
	if err != nil {
		db.abortTable(tl, out)
		return nil, err
	}
	rf, err := db.openSSTFile(tl, out.name)
	if err != nil {
		db.abortTable(tl, out)
		return nil, err
	}
	return newTable(out.num, out.name, rf, w.s.index, w.blocks, filter, w.count, size)
}

// abortTable removes what was written of out.
func (db *DB) abortTable(tl *simtime.Timeline, out *tableOutput) {
	if out.w != nil {
		// A leftover file costs space only; no manifest names it.
		_ = db.sys.Kernel().Remove(tl, out.name)
		out.w = nil
	}
}

// FincoreStep drives the APPonly[fincore] baseline (Figure 2): a
// background helper that polls fincore over one table per call (round
// robin) and issues readahead for whatever is not resident.
func (db *DB) FincoreStep(tl *simtime.Timeline) {
	v := db.pin()
	defer v.unpin()
	var tables []*sstable
	for _, lvl := range v.levels {
		tables = append(tables, lvl...)
	}
	if len(tables) == 0 {
		return
	}
	db.mu.Lock()
	db.fincoreRR++
	t := tables[db.fincoreRR%len(tables)]
	db.mu.Unlock()
	t.file.FincorePollStep(tl, t.size/db.sys.Config().BlockSize)
}

// LoadEnd reports the virtual time at which LoadDB finished; measured
// phases continue the clock from here so background state (workers,
// device bookings) stays coherent across phases.
func (db *DB) LoadEnd() simtime.Time { return db.loadEnd }

// TotalTables reports table counts per level (telemetry/tests).
func (db *DB) TotalTables() [numLevels]int {
	var out [numLevels]int
	for i, lvl := range db.current.Load().levels {
		out[i] = len(lvl)
	}
	return out
}

// DiskBytes reports the total SSTable bytes on disk.
func (db *DB) DiskBytes() int64 {
	var n int64
	for _, lvl := range db.current.Load().levels {
		for _, t := range lvl {
			n += t.size
		}
	}
	return n
}

// WaitIdle blocks the timeline until background flush/compaction work has
// drained (virtual time).
func (db *DB) WaitIdle(tl *simtime.Timeline) {
	tl.WaitUntil(db.flushWorker.Now(), simtime.WaitIO)
	tl.WaitUntil(db.compactWorker.Now(), simtime.WaitIO)
}

// --- WAL ---

// appendWALRecord appends the log record of one write to rec.
func appendWALRecord(rec []byte, key string, value []byte, seq uint64, del bool) []byte {
	rec = binary.AppendUvarint(rec, seq)
	flags := byte(0)
	if del {
		flags = 1
	}
	rec = append(rec, flags)
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = append(rec, key...)
	rec = binary.AppendUvarint(rec, uint64(len(value)))
	return append(rec, value...)
}

func (db *DB) openWAL(tl *simtime.Timeline) error {
	db.mu.Lock()
	db.nextNum++
	num := db.nextNum
	db.mu.Unlock()
	name := db.fileName("log", num)
	f, err := db.sys.Create(tl, name)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.wal = f
	db.walName = name
	db.mu.Unlock()
	return nil
}

// rotateWAL starts a fresh log after a flush and removes the old one.
func (db *DB) rotateWAL(tl *simtime.Timeline) {
	db.mu.Lock()
	old := db.walName
	db.mu.Unlock()
	if err := db.openWAL(tl); err != nil {
		return
	}
	_ = db.sys.Kernel().Remove(tl, old)
}

// replayWAL reloads unflushed writes after a reopen.
func (db *DB) replayWAL(tl *simtime.Timeline, name string) error {
	f, err := db.sys.Open(tl, name)
	if err != nil {
		return nil // no log: nothing to replay
	}
	raw := make([]byte, f.Size())
	if _, err := f.ReadAt(tl, raw, 0); err != nil {
		return err
	}
	for pos := 0; pos < len(raw); {
		seq, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			break
		}
		pos += n
		del := raw[pos] == 1
		pos++
		klen, n := binary.Uvarint(raw[pos:])
		pos += n
		key := string(raw[pos : pos+int(klen)])
		pos += int(klen)
		vlen, n := binary.Uvarint(raw[pos:])
		pos += n
		db.mem.put(key, raw[pos:pos+int(vlen)], seq, del)
		pos += int(vlen)
		if seq > db.seq {
			db.seq = seq
		}
	}
	return nil
}

// --- Manifest ---

// saveManifest records the live table set; loadManifest restores it.
func (db *DB) saveManifest(tl *simtime.Timeline) {
	db.mu.RLock()
	v := db.current.Load()
	buf := binary.AppendUvarint(nil, db.nextNum)
	buf = binary.AppendUvarint(buf, db.seq)
	db.mu.RUnlock()
	for _, lvl := range v.levels {
		buf = binary.AppendUvarint(buf, uint64(len(lvl)))
		for _, t := range lvl {
			buf = binary.AppendUvarint(buf, t.num)
		}
	}

	name := db.opt.Dir + "/MANIFEST"
	_ = db.sys.Kernel().Remove(tl, name)
	f, err := db.sys.Create(tl, name)
	if err != nil {
		return
	}
	f.WriteAt(tl, buf, 0)
	f.Fsync(tl)
}

func (db *DB) loadManifest(tl *simtime.Timeline) error {
	name := db.opt.Dir + "/MANIFEST"
	f, err := db.sys.Open(tl, name)
	if err != nil {
		return nil // fresh database
	}
	raw := make([]byte, f.Size())
	if _, err := f.ReadAt(tl, raw, 0); err != nil {
		return err
	}
	pos := 0
	next, n := binary.Uvarint(raw[pos:])
	pos += n
	seq, n := binary.Uvarint(raw[pos:])
	pos += n
	db.nextNum, db.seq = next, seq
	v := db.current.Load() // not yet shared: Open is still building the DB
	for lvl := 0; lvl < numLevels; lvl++ {
		cnt, n := binary.Uvarint(raw[pos:])
		pos += n
		for i := uint64(0); i < cnt; i++ {
			num, n := binary.Uvarint(raw[pos:])
			pos += n
			tname := db.fileName("sst", num)
			tf, err := db.openSSTFile(tl, tname)
			if err != nil {
				return err
			}
			t, err := openTable(tl, num, tname, tf)
			if err != nil {
				return err
			}
			v.levels[lvl] = append(v.levels[lvl], t)
		}
	}
	// Replay any WAL files left behind (newest numbering wins).
	for _, fname := range db.sys.FS().List() {
		if strings.HasSuffix(fname, ".log") && strings.HasPrefix(fname, db.opt.Dir+"/") {
			if err := db.replayWAL(tl, fname); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes and persists state.
func (db *DB) Close(tl *simtime.Timeline) error {
	if err := db.Flush(tl); err != nil {
		return err
	}
	db.WaitIdle(tl)
	db.saveManifest(tl)
	db.reapTables(tl)
	return nil
}
