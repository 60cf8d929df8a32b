package experiments

import (
	"errors"
	"fmt"
	"strings"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/simtime"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// ServeConfig sizes the serve frontend replay: each tenant has Clients
// concurrent sessions streaming Ops reads of IOSize from the tenant's own
// FileMB file.
type ServeConfig struct {
	SweepConfig
	Batch int // SQEs staged per submit (ring mode; default 8)
	Depth int // ring admission bound (ring mode; 0 = 4*Batch)
	// Build returns a cell's system with the given page-cache bytes.
	Build func(memory int64) *crossprefetch.System
}

// ServeCell is one replay: Rings selects the submission/completion-ring
// dispatch path (batched kernel crossings, per-tenant lanes, fair-share
// dispatch); otherwise every read is an individual synchronous call — the
// baseline frontend the rings replace.
type ServeCell struct {
	Rings   bool
	Tenants int
}

// Mode names the cell's frontend.
func (c ServeCell) Mode() string {
	if c.Rings {
		return "rings"
	}
	return "sync"
}

// name is the cell as the table's first column and the sweep name it.
func (c ServeCell) name() string { return fmt.Sprintf("%s-t%d", c.Mode(), c.Tenants) }

// serveGrid is both frontends at each tenant count.
func serveGrid(tenants ...int) (cells []ServeCell) {
	for _, n := range tenants {
		cells = append(cells, ServeCell{false, n}, ServeCell{true, n})
	}
	return cells
}

var (
	serveFull  = SweepConfig{Clients: 4, Ops: 50, IOSize: 64 << 10, FileMB: 16}
	serveQuick = SweepConfig{Clients: 2, Ops: 16, IOSize: 16 << 10, FileMB: 4}
)

// serveRun is one cell's replay.
type serveRun struct {
	ServeConfig
	ServeCell
}

// ServeResult is the replay's cross-layer scorecard.
type ServeResult struct {
	// fingerprint's digest covers the full latency vector, in (tenant,
	// session, op) order, and every tenant's dispatched bytes.
	fingerprint
	ServeCell
	Sessions int
	Ops      int64
	Bytes    int64 // client bytes read (the contract holds both modes equal)
	// Crossings is read + ring_enter + prefetch-related kernel entries —
	// the user/kernel boundary traffic the rings amortize.
	Crossings int64
	// MeanDepth and MaxBatch are the lane scheduler's achieved dispatch
	// depth (commands per batch); the sync path submits one blocking
	// command at a time, reported as depth 1.
	MeanDepth float64
	MaxBatch  int64
	// Backpressure counts ring-full stalls (ring mode): reads a full ring
	// refused, each of which made its session submit and reap inline.
	Backpressure int64
	P50, P99     simtime.Duration
	Makespan     simtime.Duration
	// MinTenantBytes/MaxTenantBytes bound the per-tenant device bytes the
	// fair-share dispatcher issued (ring mode) — the fairness spread.
	MinTenantBytes int64
	MaxTenantBytes int64
	DeviceReadMB   float64
}

// CrossingsPerOp is boundary crossings amortized over client reads.
func (r *ServeResult) CrossingsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Crossings) / float64(r.Ops)
}

// MBs is client read throughput over the replay's virtual makespan.
func (r *ServeResult) MBs() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return mbytes(r.Bytes) / (float64(r.Makespan) / float64(simtime.Second))
}

// serveFields declares the serve rows: the table names a cell
// "mode-tN" and folds the fairness spread into one column, the records
// keep them apart.
var serveFields = []field[*ServeResult]{
	{"cell", "", "%s", func(r *ServeResult) any { return r.name() }},
	{"", "mode", "", func(r *ServeResult) any { return r.Mode() }},
	{"", "tenants", "", func(r *ServeResult) any { return r.Tenants }},
	{"", "sessions_per_tenant", "", func(r *ServeResult) any { return r.Sessions }},
	{"ops", "ops", "%d", func(r *ServeResult) any { return r.Ops }},
	{"client-MB", "client_mb", "%.1f", func(r *ServeResult) any { return mbytes(r.Bytes) }},
	{"", "crossings", "", func(r *ServeResult) any { return r.Crossings }},
	{"cross/op", "crossings_per_op", "%.3f", func(r *ServeResult) any { return r.CrossingsPerOp() }},
	{"depth-mean", "mean_dispatch_depth", "%.1f", func(r *ServeResult) any { return r.MeanDepth }},
	{"depth-max", "max_dispatch_depth", "%d", func(r *ServeResult) any { return r.MaxBatch }},
	{"", "ring_backpressure", "", func(r *ServeResult) any { return r.Backpressure }},
	{"p50-us", "p50_us", "%.1f", func(r *ServeResult) any { return usec(r.P50) }},
	{"p99-us", "p99_us", "%.1f", func(r *ServeResult) any { return usec(r.P99) }},
	{"makespan-ms", "makespan_ms", "%.1f", func(r *ServeResult) any { return float64(r.Makespan) / float64(simtime.Millisecond) }},
	{"MB/s", "mb_per_s", "%.1f", func(r *ServeResult) any { return r.MBs() }},
	{"fair-min/max-MB", "", "%s", func(r *ServeResult) any {
		if !r.Rings {
			return "-"
		}
		return fmt.Sprintf("%.1f/%.1f", mbytes(r.MinTenantBytes), mbytes(r.MaxTenantBytes))
	}},
	{"", "fair_min_tenant_mb", "", func(r *ServeResult) any { return mbytes(r.MinTenantBytes) }},
	{"", "fair_max_tenant_mb", "", func(r *ServeResult) any { return mbytes(r.MaxTenantBytes) }},
	{"", "device_read_mb", "", func(r *ServeResult) any { return r.DeviceReadMB }},
	{"", "determinism_digest", "", func(r *ServeResult) any { return r.hexDigest() }},
	// A row exists only if its audit passed.
	{"", "audit", "", func(*ServeResult) any { return "ok" }},
}

// serveSession is one client of a serve cell: a driver member reading its
// tenant's file through its own descriptor. Its op i is user first+i of
// the tenant, whose latencies lat holds, so the tenant's ring books a
// completion by cq.User whichever session reaps it.
type serveSession struct {
	*workload.Thread
	f      *crosslib.File
	tenant int
	first  int
	lat    []simtime.Duration
	slots  int64 // io-sized slots of the file
}

// offset draws the session's next read from its member's PRNG: seeded
// random point reads — the request-serving shape (think KV point lookups)
// where neither kernel readahead nor the library predictor can hide the
// misses, so the dispatch path itself decides the achieved device queue
// depth.
func (s *serveSession) offset(io int64) int64 { return s.Rng.Int63n(s.slots) * io }

// replay lays out per-tenant files, drops caches, replays the configured
// sessions as members of one driver, and returns the scorecard. Member id
// is tenant·Clients + session in both modes, so both replay the same
// offsets and only the dispatch path differs.
func (c serveRun) replay(r *cellRun) (*ServeResult, error) {
	sys := r.sys
	names := make([]string, c.Tenants)
	var slots int64
	for t := range names {
		names[t] = fmt.Sprintf("serve-t%02d", t)
		file, err := r.create(names[t], c.FileMB)
		if err != nil {
			return nil, err
		}
		if slots = file.Size() / c.IOSize; slots == 0 {
			return nil, fmt.Errorf("file %dB smaller than iosize %dB", file.Size(), c.IOSize)
		}
	}
	r.dropCaches()

	perTenant := c.Clients * c.Ops
	lat := make([]simtime.Duration, c.Tenants*perTenant)
	body := c.replaySync
	var rings []*crosslib.Ring
	if c.Rings {
		rings = make([]*crosslib.Ring, c.Tenants)
		prepAt := make([][]simtime.Time, c.Tenants)
		for t := range rings {
			rings[t] = sys.Lib().NewRing(t, c.Depth)
			prepAt[t] = make([]simtime.Time, perTenant)
		}
		body = func(s *serveSession) error { return c.replayRing(s, rings[s.tenant], prepAt[s.tenant]) }
	}
	d := workload.Drive(sys.Group(), c.Seed)
	sessions := d.Go(c.Tenants*c.Clients, func(th *workload.Thread, id int) error {
		t := id / c.Clients
		f, err := sys.Open(th.TL, names[t])
		if err != nil {
			return err
		}
		defer f.Close(th.TL)
		return body(&serveSession{Thread: th, f: f, tenant: t, first: id % c.Clients * c.Ops,
			lat: lat[t*perTenant : (t+1)*perTenant], slots: slots})
	})
	out, err := d.Wait(sys)
	if err != nil {
		return nil, err
	}

	res := &ServeResult{ServeCell: c.ServeCell, Sessions: c.Clients, Makespan: out.Makespan}
	if res.Ops, res.Bytes = workload.Sum(sessions); res.Ops != int64(len(lat)) {
		return nil, fmt.Errorf("%d of %d reads completed", res.Ops, len(lat))
	}
	var h strings.Builder
	for _, l := range lat {
		fmt.Fprintf(&h, "%d,", l)
	}
	res.P50, res.P99 = tail(lat)
	k := sys.Kernel()
	res.Crossings = k.SyscallCount(vfs.SysRead) +
		k.SyscallCount(vfs.SysRingEnter) + k.PrefetchSyscalls()
	ls := k.RingStats()
	for _, ts := range ls.Tenants {
		fmt.Fprintf(&h, "t%d:%d;", ts.Tenant, ts.DispatchedBytes)
	}
	res.Digest = digest(nil, h.String())
	res.MeanDepth, res.MaxBatch = 1, 1
	if c.Rings {
		res.MeanDepth, res.MaxBatch = ls.MeanBatchDepth(), ls.MaxBatch
		for i, ts := range ls.Tenants {
			if i == 0 || ts.DispatchedBytes < res.MinTenantBytes {
				res.MinTenantBytes = ts.DispatchedBytes
			}
			res.MaxTenantBytes = max(res.MaxTenantBytes, ts.DispatchedBytes)
		}
		for _, ring := range rings {
			res.Backpressure += ring.Stats().Backpressure
		}
	}
	res.DeviceReadMB = mbytes(sys.Device().Stats().ReadBytes)
	return res, nil
}

// replayRing is a session of the ring frontend: it stages its reads on its
// tenant's ring, shared with the tenant's other sessions, and submits
// Batch of them as one kernel crossing; the lane scheduler sees every
// session's staged work at once, which is what sustains device queue
// depth. A full ring is the admission control: the session submits
// whatever is staged and reaps the ring inline, on its own timeline,
// booking each completion by cq.User. Reap with min 0 never blocks, and a
// submit parks every completion before it returns, so no member waits on
// another (DESIGN §26). Its last act is the same submit and reap, so the
// tenant's last session drains the ring.
func (c serveRun) replayRing(s *serveSession, ring *crosslib.Ring, prepAt []simtime.Time) error {
	drain := func() error {
		ring.Submit(s.TL)
		for _, cq := range ring.Reap(s.TL, 0) {
			if cq.Err != nil {
				return fmt.Errorf("user %d: %w", cq.User, cq.Err)
			}
			if cq.N != c.IOSize {
				return fmt.Errorf("user %d: short read %d", cq.User, cq.N)
			}
			s.lat[cq.User] = cq.Done.Sub(prepAt[cq.User])
			s.Ops++
			s.Bytes += cq.N
		}
		return nil
	}
	bufs := make([][]byte, c.Batch)
	for i := range bufs {
		bufs[i] = make([]byte, c.IOSize)
	}
	staged := 0
	for i := 0; i < c.Ops; i++ {
		u := uint64(s.first + i)
		off := s.offset(c.IOSize)
		prepAt[u] = s.TL.Now()
		err := ring.PrepRead(s.f, bufs[staged], off, u)
		if errors.Is(err, crosslib.ErrRingFull) {
			// The drain leaves the ring empty, so the second try is admitted.
			staged = 0
			if err = drain(); err == nil {
				err = ring.PrepRead(s.f, bufs[0], off, u)
			}
		}
		if err != nil {
			return err
		}
		if staged++; staged == c.Batch {
			ring.Submit(s.TL)
			staged = 0
		}
		s.Gate()
	}
	return drain()
}

// ServeCells replays each cell (nil: both frontends at 1, 8 and 64
// tenants) on sweep.run. Wherever a tenant count ran in both modes, the
// contract holds the rings to their reason to exist: identical client
// bytes, at most half the kernel crossings per op, and a mean dispatch
// depth of at least 2.
func ServeCells(c ServeConfig, cells []ServeCell) (*Report, error) {
	c.SweepConfig = c.orElse(serveFull)
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.Depth <= 0 {
		c.Depth = 4 * c.Batch
	}
	if cells == nil {
		cells = serveGrid(1, 8, 64)
	}
	s := sweep[*ServeResult]{
		table:  &Table{ID: "serve", Title: "Serve frontend: sync vs submission rings across tenant counts"},
		fields: serveFields,
		contract: func(_ []*ServeResult, at func(cell string) *ServeResult) error {
			for _, cl := range cells {
				base, rings := at(cl.name()), at(ServeCell{true, cl.Tenants}.name())
				if cl.Rings || rings == nil {
					continue // a single custom cell has no pair
				}
				switch {
				case rings.Bytes != base.Bytes:
					return fmt.Errorf("t%d: client bytes %d (rings) vs %d (sync)", cl.Tenants, rings.Bytes, base.Bytes)
				case rings.CrossingsPerOp() > base.CrossingsPerOp()/2:
					return fmt.Errorf("t%d: rings cross/op %.3f above half of sync's %.3f",
						cl.Tenants, rings.CrossingsPerOp(), base.CrossingsPerOp())
				case rings.MeanDepth < 2:
					return fmt.Errorf("t%d: rings mean dispatch depth %.2f below 2", cl.Tenants, rings.MeanDepth)
				}
			}
			return nil
		},
	}
	s.table.Note("sessions/tenant=%d ops/session=%d batch=%d iosize=%dKB file=%dMB approach=%v",
		c.Clients, c.Ops, c.Batch, c.IOSize>>10, c.FileMB, crossprefetch.CrossPredictOpt)
	s.table.Note("latency caveat: ring CQEs carry uncapped device completion times, " +
		"while sync reads cap in-flight waits (the blocking reader's demand-read " +
		"option) — sync p50/p99 and MB/s are optimistic by construction")
	for _, cl := range cells {
		s.cells = append(s.cells, sweepCell[*ServeResult]{
			name: cl.name(),
			// Memory holds half the aggregate dataset: the serving-tier shape
			// where misses are structural, the library's coverage prefetch
			// backs off at its low watermark, and the dispatch path — not
			// cache hits — decides queue depth and latency.
			build:  func() *crossprefetch.System { return c.Build(int64(cl.Tenants) * c.FileMB << 20 / 2) },
			replay: serveRun{c, cl}.replay,
		})
	}
	return s.run(c.Observe)
}

// Serve reproduces the frontend comparison the rings exist for: the same
// multi-tenant streaming replay dispatched synchronously and through
// per-tenant submission rings, across tenant counts. At identical client
// byte totals the ring cells must show fewer kernel crossings per op and
// deeper sustained device queues; the table reports both, plus tail
// latency and the fair-share dispatcher's per-tenant byte spread.
func Serve(o Options) (*Table, error) {
	c := ServeConfig{SweepConfig: o.sizing(serveFull, serveQuick), Batch: 8}
	c.Build = func(memory int64) *crossprefetch.System {
		return newSys(sysConfig{
			approach:   crossprefetch.CrossPredictOpt,
			memory:     memory,
			plug:       true,
			congestion: simtime.Second,
		})
	}
	var cells []ServeCell
	if o.Quick {
		c.Batch = 4
		cells = serveGrid(1, 4)
	}
	return tableOf(ServeCells(c, cells))
}
