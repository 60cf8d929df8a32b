package experiments

// One sweep: what it means to run a cell of a deterministic experiment
// lives here and nowhere else. A cell builds a fresh system, runs its
// workload on it, is measured, passes the telemetry audit when the system
// records telemetry, and then does all of that again on a second fresh
// system and must reproduce its fingerprint — the digest of every declared
// field at full precision; when every cell is in, the experiment's contract
// is asserted and the rows are rendered — Table, JSON record — from its one
// field list. Every registry entry is a declaration over it: a cell table,
// what to run and measure in a cell, a contract and a field list. The
// serve-style sweeps (overload.go, score.go, predict.go, tier.go) replay
// seeded offset schedules from one goroutine with every returned byte
// checked against the raw inode; the paper tables and chaos hand the
// cell's system to a workload driver (cellOf, harness.go), and
// serve launches its sessions as members of one (serve.go). DESIGN §19.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/fs"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// SweepConfig sizes a sweep; each sweep declares a full and a quick one.
type SweepConfig struct {
	FileMB int64 // file size per client
	IOSize int64 // bytes per read
	// Ops is the reads per client; where a sweep measures a warm half it
	// is that half, after a training half of the same length.
	Ops int
	// Clients is the overload sweep's victim tenants, the score sweep's
	// shared-file readers and the serve frontend's sessions per tenant.
	Clients int
	Seed    int64
}

// sizing picks a registry runner's scale.
func (o Options) sizing(full, quick SweepConfig) SweepConfig {
	if o.Quick {
		full = quick
	}
	full.Seed = o.Seed
	return full
}

// field declares one result field of a sweep, once: the Table column it
// fills (col; "" keeps it out of the table), the JSON key it is archived
// under (key; "" keeps it out of the record), the verb that renders the
// table cell, and how to read it off a row.
type field[R any] struct {
	col, key, verb string
	val            func(R) any
}

// Record is one row's JSON object with its keys in field order, the
// order encoding/json gave the per-mode structs it replaces.
type Record []recordField

type recordField struct {
	key string
	val any
}

// MarshalJSON writes the object; json.MarshalIndent re-indents it.
func (r Record) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range r {
		v, err := json.Marshal(f.val)
		if err != nil {
			return nil, fmt.Errorf("record field %s: %w", f.key, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", f.key, v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// Report is a finished experiment: the table crossbench prints and the
// records it archives under -json, rendered from the same field list.
type Report struct {
	Table   *Table
	Records []Record
	// Systems is, when the run's Options record telemetry, each cell's
	// first-run system in cell order; every one passed its audit.
	Systems []CellSystem
}

// CellSystem is one cell's audited system, named as the cell.
type CellSystem struct {
	Cell string
	Sys  *crossprefetch.System
}

// render fills t's columns and rows, and the records, from rows; a field
// list that declares no JSON key renders no records.
func render[R any](t *Table, fields []field[R], rows []R) *Report {
	for _, f := range fields {
		if f.col != "" {
			t.Columns = append(t.Columns, f.col)
		}
	}
	rep := &Report{Table: t}
	for _, r := range rows {
		var cells []string
		var rec Record
		for _, f := range fields {
			v := f.val(r)
			if f.col != "" {
				cells = append(cells, fmt.Sprintf(f.verb, v))
			}
			if f.key != "" {
				rec = append(rec, recordField{f.key, v})
			}
		}
		t.AddRow(cells...)
		if rec != nil {
			rep.Records = append(rep.Records, rec)
		}
	}
	return rep
}

// usec is a virtual duration in the microseconds the tables report.
func usec(d simtime.Duration) float64 { return float64(d) / float64(simtime.Microsecond) }

// mbytes is a byte count in MB.
func mbytes(n int64) float64 { return float64(n) / (1 << 20) }

// fingerprint is a digest a result row carries in its JSON record; the
// serve-style sweeps fold what a row does not render (a latency vector, a
// scorecard snapshot, tenant ledgers) into it.
type fingerprint struct{ Digest uint64 }

// hexDigest is the digest as the JSON records carry it.
func (f fingerprint) hexDigest() string { return fmt.Sprintf("%016x", f.Digest) }

// digest is the FNV-64a of data followed by rest.
func digest(data []byte, rest string) uint64 {
	h := fnv.New64a()
	h.Write(data)
	io.WriteString(h, rest)
	return h.Sum64()
}

// sweepCell is one point of a sweep's grid.
type sweepCell[R any] struct {
	name string               // "w1-local/sequential", for errors
	cfg  crossprefetch.Config // each run's fresh system, built by newSys
	// replay runs the cell's workload on r.sys and measures the result.
	replay func(r *cellRun) (R, error)
}

// sweep is one experiment grid over the shared cell runner.
type sweep[R any] struct {
	table  *Table // ID, title and notes; render fills the rest
	fields []field[R]
	cells  []sweepCell[R]
	// contract, when set, asserts what the sweep claims across its rows
	// (in cell order, or looked up by cell name) and may fill a field
	// derived from another cell, such as a ratio to a baseline.
	contract func(rows []R, at func(cell string) R) error
}

// run executes every cell twice on systems newSys builds under o, compares
// the fingerprints, asserts the contract and renders the rows. When o
// records telemetry the report lists each cell's first-run system; o's
// Observe is handed every system before its replay starts.
func (s sweep[R]) run(o Options) (*Report, error) {
	rows := make([]R, 0, len(s.cells))
	byName := make(map[string]R, len(s.cells))
	var systems []CellSystem
	for _, c := range s.cells {
		var prints [2]uint64
		for i := range prints {
			sys := newSys(o, c.cfg)
			if o.Observe != nil {
				o.Observe(sys)
			}
			res, err := c.replay(&cellRun{sys: sys, setup: sys.Timeline()})
			if err == nil && sys.Telemetry() != nil {
				// Every layer's ledger must close, including the sweep's own
				// partition identity (tenant residency, scorecard origins,
				// per-arm pages, per-backend commands).
				err = sys.AuditTelemetry()
			}
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", s.table.ID, c.name, err)
			}
			prints[i] = s.fingerprint(res)
			if i == 0 {
				if o.recording() {
					systems = append(systems, CellSystem{c.name, sys})
				}
				rows = append(rows, res)
				byName[c.name] = res
			}
		}
		if prints[0] != prints[1] {
			return nil, fmt.Errorf("%s %s: rerun on the same seed differs (digest %x vs %x)",
				s.table.ID, c.name, prints[0], prints[1])
		}
	}
	if s.contract != nil {
		if err := s.contract(rows, func(cell string) R { return byName[cell] }); err != nil {
			return nil, fmt.Errorf("%s: %w", s.table.ID, err)
		}
	}
	rep := render(s.table, s.fields, rows)
	rep.Systems = systems
	return rep, nil
}

// fingerprint is what a rerun of a cell on the same seed must reproduce:
// the FNV-64a of every declared field's value at full precision, so it
// covers every byte the row renders and records.
func (s sweep[R]) fingerprint(r R) uint64 {
	h := fnv.New64a()
	for _, f := range s.fields {
		fmt.Fprintf(h, "%v|", f.val(r))
	}
	return h.Sum64()
}

// cellRun is one execution of a cell on a fresh system.
type cellRun struct {
	sys   *crossprefetch.System
	setup *simtime.Timeline // lays out files and drops caches
}

// create lays out a block-rounded synthetic file and returns its raw
// inode — the ground truth its readers are checked against.
func (r *cellRun) create(name string, mb int64) (*fs.Inode, error) {
	bs := r.sys.Kernel().BlockSize()
	return r.sys.FS().CreateSynthetic(r.setup, name, (mb<<20)/bs*bs)
}

// dropCaches empties the page cache and the library's belief about it.
func (r *cellRun) dropCaches() { r.sys.DropAllCaches(r.setup) }

// layout is create followed by dropCaches: the whole set-up of a cell
// whose clients share one file and open it cold.
func (r *cellRun) layout(name string, mb int64) (*fs.Inode, error) {
	truth, err := r.create(name, mb)
	if err == nil {
		r.dropCaches()
	}
	return truth, err
}

// reader is one client of a cell: its own timeline and descriptor over a
// file, replaying offs in io-sized reads.
type reader struct {
	tl    *simtime.Timeline
	f     *crosslib.File
	ring  *crosslib.Ring // set by the sweeps whose step goes through a ring
	truth *fs.Inode
	offs  []int64
	next  int
	burst int // reads per round-robin turn
	buf   []byte
	want  []byte
	lat   []simtime.Duration // per read, in replay order
}

// open adds a client of truth's file.
func (r *cellRun) open(truth *fs.Inode, offs []int64, io int64) (*reader, error) {
	tl := r.sys.Timeline()
	f, err := r.sys.Open(tl, truth.Name())
	if err != nil {
		return nil, err
	}
	return &reader{tl: tl, f: f, truth: truth, offs: offs, burst: 1,
		buf: make([]byte, io), want: make([]byte, io)}, nil
}

// bytesRead is the client bytes the reader has replayed so far.
func (rd *reader) bytesRead() int64 { return int64(rd.next) * int64(len(rd.buf)) }

// stepFunc performs one read of len(rd.buf) bytes at off into rd.buf and
// reports the bytes read and the virtual time the read completed. It is
// the one thing about a read that differs between sweeps.
type stepFunc func(rd *reader, off int64) (n int64, done simtime.Time, err error)

// readAt is the plain synchronous step.
func readAt(rd *reader, off int64) (int64, simtime.Time, error) {
	n, err := rd.f.ReadAt(rd.tl, rd.buf, off)
	return int64(n), rd.tl.Now(), err
}

// toEnd, as replay's upTo, replays every reader's whole schedule.
const toEnd = math.MaxInt

// replay drives the readers round-robin from this one goroutine — so a
// seed fully determines the run — each taking burst reads per turn, until
// every reader has replayed min(upTo, len(offs)) of its reads. Every read
// must be full-length and byte-identical to the raw inode.
func replay(readers []*reader, upTo int, step stepFunc) error {
	for progress := true; progress; {
		progress = false
		for _, rd := range readers {
			for k := 0; k < rd.burst && rd.next < min(upTo, len(rd.offs)); k++ {
				off := rd.offs[rd.next]
				rd.next++
				t0 := rd.tl.Now()
				n, done, err := step(rd, off)
				if err != nil {
					return fmt.Errorf("read at %d: %w", off, err)
				}
				if n != int64(len(rd.buf)) {
					return fmt.Errorf("short read %d at %d", n, off)
				}
				rd.truth.ReadAt(rd.want, off)
				if !bytes.Equal(rd.buf, rd.want) {
					return fmt.Errorf("corrupt data at %d of %s", off, rd.truth.Name())
				}
				rd.lat = append(rd.lat, done.Sub(t0))
				progress = true
			}
		}
	}
	return nil
}

// tail sorts lat and returns its median and 99th percentile.
func tail(lat []simtime.Duration) (p50, p99 simtime.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2], lat[len(lat)*99/100]
}

// warmHalf is what the second half of a two-half replay measured, after
// a training half of the same length.
type warmHalf struct {
	WarmReads int64
	// WarmHitRate is the fraction of read pages served without a demand
	// device fetch, WarmPagesPerSec read pages per virtual second.
	WarmHitRate     float64
	WarmPagesPerSec float64
	warmLat         []simtime.Duration
}

// twoHalves is the whole replay of a cell with one client: lay out the
// file, open it cold, replay 2*Ops reads of the pattern, and measure the
// second half.
func (r *cellRun) twoHalves(file string, cfg SweepConfig, kind pattern) (*reader, warmHalf, error) {
	var w warmHalf
	truth, err := r.layout(file, cfg.FileMB)
	if err != nil {
		return nil, w, err
	}
	offs := offsets(kind, truth.Size()/cfg.IOSize, cfg.IOSize, 2*cfg.Ops, cfg.Seed)
	rd, err := r.open(truth, offs, cfg.IOSize)
	if err != nil {
		return nil, w, err
	}
	rec, one := r.sys.Telemetry(), []*reader{rd}
	start := len(offs) / 2
	if err := replay(one, start, readAt); err != nil {
		return nil, w, err
	}
	t0, demand0 := rd.tl.Now(), rec.CounterValue(telemetry.CtrVFSDemandFetchPages)
	if err := replay(one, len(offs), readAt); err != nil {
		return nil, w, err
	}
	w.WarmReads = int64(len(offs) - start)
	pages := w.WarmReads * (cfg.IOSize / r.sys.Kernel().BlockSize())
	demand := min(rec.CounterValue(telemetry.CtrVFSDemandFetchPages)-demand0, pages)
	w.WarmHitRate = 1 - float64(demand)/float64(pages)
	if dt := rd.tl.Now().Sub(t0); dt > 0 {
		w.WarmPagesPerSec = float64(pages) / (float64(dt) / 1e9)
	}
	w.warmLat = rd.lat[start:]
	return rd, w, nil
}

// pattern is one offset schedule of the one generator.
type pattern int

const (
	// patSequential streams the slots front to back, wrapping.
	patSequential pattern = iota
	// patStrided reads every other slot.
	patStrided
	// patUniform is seeded random point reads.
	patUniform
	// patZipfian is hot-spotted random slots (s = 1.2).
	patZipfian
	// patZipfLSM reads zipf-selected "objects", each a chain of lsmFrags
	// non-adjacent fragments (an LSM table's index/filter/data blocks).
	// Chains repeat under the skew, so an association miner can learn
	// fragment → successor, and a tier promote the popular extents.
	patZipfLSM
	// patInterleaved is one dominant sequential stream with every eighth
	// access replaced by a foreign offset — threads sharing a descriptor.
	patInterleaved
	// patStreams is sharedStreams sequential streams round-robin on one
	// descriptor, each starting an equal share of the file apart.
	patStreams
)

const (
	lsmFrags      = 3
	sharedStreams = 4
)

// offsets builds the deterministic access sequence of at least total
// io-sized reads over slots slots (patZipfLSM finishes its last chain).
func offsets(kind pattern, slots, io int64, total int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	offs := make([]int64, 0, total+lsmFrags)
	switch kind {
	case patSequential, patStrided:
		stride := int64(1)
		if kind == patStrided {
			stride = 2
		}
		for i := int64(0); len(offs) < total; i += stride {
			offs = append(offs, i%slots*io)
		}
	case patUniform:
		for len(offs) < total {
			offs = append(offs, rng.Int63n(slots)*io)
		}
	case patZipfian:
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(slots-1))
		for len(offs) < total {
			offs = append(offs, int64(zipf.Uint64())*io)
		}
	case patZipfLSM:
		// Scatter the chains over a permutation of the slots so successive
		// fragments of one object are never adjacent — and never share a
		// stripe chunk or tier extent.
		perm := rng.Perm(int(slots))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(slots/lsmFrags-1))
		for len(offs) < total {
			o := int64(zipf.Uint64())
			for f := int64(0); f < lsmFrags; f++ {
				offs = append(offs, int64(perm[o*lsmFrags+f])*io)
			}
		}
	case patInterleaved:
		for i, pos := 0, int64(0); len(offs) < total; i++ {
			if i%8 == 7 {
				offs = append(offs, rng.Int63n(slots)*io)
				continue
			}
			offs = append(offs, pos%slots*io)
			pos++
		}
	case patStreams:
		var pos [sharedStreams]int64
		for i := 0; len(offs) < total; i++ {
			s := i % sharedStreams
			offs = append(offs, (int64(s)*slots/sharedStreams+pos[s])%slots*io)
			pos[s]++
		}
	}
	return offs
}
