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

// serveCell is one replay: rings selects the submission/completion-ring
// dispatch path (batched kernel crossings, per-tenant lanes, fair-share
// dispatch); otherwise every read is an individual synchronous call — the
// baseline frontend the rings replace.
type serveCell struct {
	rings   bool
	tenants int
}

// mode names the cell's frontend.
func (c serveCell) mode() string {
	if c.rings {
		return "rings"
	}
	return "sync"
}

// name is the cell as the table's first column and the sweep name it.
func (c serveCell) name() string { return fmt.Sprintf("%s-t%d", c.mode(), c.tenants) }

var (
	serveFull  = SweepConfig{Clients: 4, Ops: 200, IOSize: 64 << 10, FileMB: 16}
	serveQuick = SweepConfig{Clients: 2, Ops: 16, IOSize: 16 << 10, FileMB: 4}
)

// serveRun is one cell's replay: each tenant has Clients concurrent
// sessions reading Ops times IOSize from the tenant's own FileMB file, and
// ring sessions stage batch reads per submit.
type serveRun struct {
	SweepConfig
	batch int
	serveCell
}

// ServeResult is the replay's cross-layer scorecard.
type ServeResult struct {
	// fingerprint's digest covers the full latency vector, in (tenant,
	// session, op) order, and every tenant's dispatched bytes.
	fingerprint
	serveCell
	Sessions int
	Ops      int64
	Bytes    int64 // client bytes read (the contract holds both modes equal)
	// Crossings is read + ring_enter + prefetch-related kernel entries —
	// the user/kernel boundary traffic the rings amortize; reads and
	// enters are its first two terms, which the contract holds to the
	// cell's frontend.
	Crossings     int64
	reads, enters int64
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
	{"", "mode", "", func(r *ServeResult) any { return r.mode() }},
	{"", "tenants", "", func(r *ServeResult) any { return r.tenants }},
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
		if !r.rings {
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
	names := make([]string, c.tenants)
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
	lat := make([]simtime.Duration, c.tenants*perTenant)
	body := c.replaySync
	var rings []*crosslib.Ring
	if c.rings {
		rings = make([]*crosslib.Ring, c.tenants)
		prepAt := make([][]simtime.Time, c.tenants)
		for t := range rings {
			// The ring's depth is its admission bound.
			rings[t] = sys.Lib().NewRing(t, 4*c.batch)
			prepAt[t] = make([]simtime.Time, perTenant)
		}
		body = func(s *serveSession) error { return c.replayRing(s, rings[s.tenant], prepAt[s.tenant]) }
	}
	d := workload.Drive(sys.Group(), c.Seed)
	sessions := d.Go(c.tenants*c.Clients, func(th *workload.Thread, id int) error {
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

	res := &ServeResult{serveCell: c.serveCell, Sessions: c.Clients, Makespan: out.Makespan}
	if res.Ops, res.Bytes = workload.Sum(sessions); res.Ops != int64(len(lat)) {
		return nil, fmt.Errorf("%d of %d reads completed", res.Ops, len(lat))
	}
	var h strings.Builder
	for _, l := range lat {
		fmt.Fprintf(&h, "%d,", l)
	}
	res.P50, res.P99 = tail(lat)
	k := sys.Kernel()
	res.reads, res.enters = k.SyscallCount(vfs.SysRead), k.SyscallCount(vfs.SysRingEnter)
	res.Crossings = res.reads + res.enters + k.PrefetchSyscalls()
	ls := k.RingStats()
	for _, ts := range ls.Tenants {
		fmt.Fprintf(&h, "t%d:%d;", ts.Tenant, ts.DispatchedBytes)
	}
	res.Digest = digest(nil, h.String())
	res.MeanDepth, res.MaxBatch = 1, 1
	if c.rings {
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

// replaySync is a session of the baseline frontend: one blocking read
// call per op — one kernel crossing and one device command at a time, the
// dispatch pattern the rings replace.
func (c serveRun) replaySync(s *serveSession) error {
	buf := make([]byte, c.IOSize)
	for i := s.first; i < s.first+c.Ops; i++ {
		off := s.offset(c.IOSize)
		t0 := s.TL.Now()
		n, err := s.f.ReadAt(s.TL, buf, off)
		if err != nil {
			return err
		}
		s.lat[i] = s.TL.Now().Sub(t0)
		s.Ops++
		s.Bytes += int64(n)
		s.Gate()
	}
	return nil
}

// replayRing is a session of the ring frontend: it stages its reads on its
// tenant's ring, shared with the tenant's other sessions, and submits
// batch of them as one kernel crossing; the lane scheduler sees every
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
	bufs := make([][]byte, c.batch)
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
		if staged++; staged == c.batch {
			ring.Submit(s.TL)
			staged = 0
		}
		s.Gate()
	}
	return drain()
}

// Serve reproduces the frontend comparison the rings exist for: the same
// multi-tenant replay of seeded random reads dispatched synchronously and
// through per-tenant submission rings, at 1, 8 and 64 tenants (1 and 4 at
// quick scale). The contract holds each cell to its frontend — a rings
// cell makes no read(2) crossing, a sync cell no ring_enter — and the
// rings to their reason to exist at every tenant count: identical client
// bytes, at most half the kernel crossings per op, and a mean dispatch
// depth of at least 2; the table reports both frontends, plus tail latency
// and the fair-share dispatcher's per-tenant byte spread.
func Serve(o Options) (*Report, error) {
	c, batch, tenants := o.sizing(serveFull, serveQuick), 8, []int{1, 8, 64}
	if o.Quick {
		batch, tenants = 4, []int{1, 4}
	}
	s := sweep[*ServeResult]{
		table:  &Table{ID: "serve", Title: "Serve frontend: sync vs submission rings across tenant counts"},
		fields: serveFields,
		contract: func(_ []*ServeResult, at func(cell string) *ServeResult) error {
			for _, n := range tenants {
				base, rings := at(serveCell{false, n}.name()), at(serveCell{true, n}.name())
				switch {
				case rings.reads != 0:
					return fmt.Errorf("t%d: rings frontend made %d read(2) crossings", n, rings.reads)
				case base.enters != 0:
					return fmt.Errorf("t%d: sync frontend made %d ring_enter crossings", n, base.enters)
				case rings.Bytes != base.Bytes:
					return fmt.Errorf("t%d: client bytes %d (rings) vs %d (sync)", n, rings.Bytes, base.Bytes)
				case rings.CrossingsPerOp() > base.CrossingsPerOp()/2:
					return fmt.Errorf("t%d: rings cross/op %.3f above half of sync's %.3f",
						n, rings.CrossingsPerOp(), base.CrossingsPerOp())
				case rings.MeanDepth < 2:
					return fmt.Errorf("t%d: rings mean dispatch depth %.2f below 2", n, rings.MeanDepth)
				}
			}
			return nil
		},
	}
	s.table.Note("sessions/tenant=%d ops/session=%d batch=%d iosize=%dKB file=%dMB approach=%v",
		c.Clients, c.Ops, batch, c.IOSize>>10, c.FileMB, crossprefetch.CrossPredictOpt)
	s.table.Note("latency caveat: ring CQEs carry uncapped device completion times, " +
		"while sync reads cap in-flight waits (the blocking reader's demand-read " +
		"option) — sync p50/p99 and MB/s are optimistic by construction")
	for _, n := range tenants {
		for _, cl := range []serveCell{{false, n}, {true, n}} {
			s.cells = append(s.cells, sweepCell[*ServeResult]{
				name:   cl.name(),
				cfg:    serveSys(int64(n) * c.FileMB << 20 / 2),
				replay: serveRun{c, batch, cl}.replay,
			})
		}
	}
	return s.run(o)
}

// serveSys is one cell's system with the given page-cache bytes —
// half the aggregate dataset: the serving-tier shape where misses are
// structural, the library's coverage prefetch backs off at its low
// watermark, and the dispatch path, not cache hits, decides queue depth
// and latency. Telemetry, tracing and scorecards are on: the audit is part
// of every row, and the admin plane reads the rest.
func serveSys(memory int64) crossprefetch.Config {
	return crossprefetch.Config{
		MemoryBytes:     memory,
		Approach:        crossprefetch.CrossPredictOpt,
		Telemetry:       true,
		Trace:           true,
		Scorecard:       true,
		CongestionLimit: simtime.Second,
	}
}
