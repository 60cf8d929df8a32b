package experiments

import (
	"fmt"
	"runtime"
	"sync"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/simtime"
	"repro/internal/vfs"
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

// serveRun is one cell's replay on its system.
type serveRun struct {
	ServeConfig
	ServeCell
	sys *crossprefetch.System
}

// ServeResult is the replay's cross-layer scorecard.
type ServeResult struct {
	ServeCell
	Sessions int
	Ops      int64
	Bytes    int64 // client bytes read (identical across modes by construction)
	// Crossings is read + ring_enter + prefetch-related kernel entries —
	// the user/kernel boundary traffic the rings amortize.
	Crossings int64
	// MeanDepth and MaxBatch are the lane scheduler's achieved dispatch
	// depth (commands per batch); the sync path submits one blocking
	// command at a time, reported as depth 1.
	MeanDepth float64
	MaxBatch  int64
	// Backpressure counts SQEs refused at ring admission (ring mode).
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
	{"cell", "", "%s", func(r *ServeResult) any { return fmt.Sprintf("%s-t%d", r.Mode(), r.Tenants) }},
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
	// A row exists only if its audit passed.
	{"", "audit", "", func(*ServeResult) any { return "ok" }},
}

// run lays out per-tenant files, drops caches, replays the configured
// sessions, and returns the scorecard. Both modes replay the exact same
// (tenant, session, op) → offset schedule, so client byte totals are
// identical and only the dispatch path differs.
func (c serveRun) run() (*ServeResult, error) {
	sys := c.sys
	r := &cellRun{sys: sys, setup: sys.Timeline()}
	names := make([]string, c.Tenants)
	var fileBytes int64
	for t := range names {
		names[t] = fmt.Sprintf("serve-t%02d", t)
		file, err := r.create(names[t], c.FileMB)
		if err != nil {
			return nil, err
		}
		if fileBytes = file.Size(); fileBytes < c.IOSize {
			return nil, fmt.Errorf("file %dB smaller than iosize %dB", fileBytes, c.IOSize)
		}
	}
	r.dropCaches()

	total := c.Tenants * c.Clients * c.Ops
	lat := make([]simtime.Duration, total)
	var (
		makespan     simtime.Duration
		backpressure int64
		err          error
	)
	if c.Rings {
		makespan, backpressure, err = replayRings(c, names, fileBytes, lat)
	} else {
		makespan, err = replaySync(c, names, fileBytes, lat)
	}
	if err != nil {
		return nil, err
	}

	res := &ServeResult{
		ServeCell:    c.ServeCell,
		Sessions:     c.Clients,
		Ops:          int64(total),
		Bytes:        int64(total) * c.IOSize,
		Backpressure: backpressure,
		Makespan:     makespan,
	}
	res.P50, res.P99 = tail(lat)
	k := sys.Kernel()
	res.Crossings = k.SyscallCount(vfs.SysRead) +
		k.SyscallCount(vfs.SysRingEnter) + k.PrefetchSyscalls()
	if c.Rings {
		ls := k.RingStats()
		res.MeanDepth = ls.MeanBatchDepth()
		res.MaxBatch = ls.MaxBatch
		for i, ts := range ls.Tenants {
			if i == 0 || ts.DispatchedBytes < res.MinTenantBytes {
				res.MinTenantBytes = ts.DispatchedBytes
			}
			if ts.DispatchedBytes > res.MaxTenantBytes {
				res.MaxTenantBytes = ts.DispatchedBytes
			}
		}
	} else {
		res.MeanDepth = 1
		res.MaxBatch = 1
	}
	res.DeviceReadMB = mbytes(sys.Device().Stats().ReadBytes)
	return res, nil
}

// schedule is the deterministic replay schedule for one session: seeded
// random point reads — the request-serving shape (think KV point
// lookups) where neither kernel readahead nor the library predictor can
// hide the misses, so the dispatch path itself decides the achieved
// device queue depth.
func (c serveRun) schedule(tenant, session int, fileBytes int64) []int64 {
	return offsets(patUniform, fileBytes/c.IOSize, c.IOSize, c.Ops,
		c.Seed+int64(tenant)*7919+int64(session)*104729)
}

// serveEndpoints accumulates session/reaper completion times and the
// first error across the replay's goroutines.
type serveEndpoints struct {
	mu   sync.Mutex
	last simtime.Time
	err  error
}

func (e *serveEndpoints) note(end simtime.Time, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if end > e.last {
		e.last = end
	}
	if err != nil && e.err == nil {
		e.err = err
	}
}

// replayRings drives the ring frontend: one ring per tenant shared by
// that tenant's sessions, a per-tenant reaper draining completions
// concurrently, and ring-full backpressure as the admission control.
// Sessions stage Batch reads then submit them as one kernel crossing;
// the kernel-side lane scheduler sees every tenant's staged work at
// once, which is what sustains device queue depth.
func replayRings(c serveRun, names []string, fileBytes int64, lat []simtime.Duration) (simtime.Duration, int64, error) {
	sys := c.sys
	perTenant := c.Clients * c.Ops
	ends := &serveEndpoints{}
	rings := make([]*crosslib.Ring, c.Tenants)
	var wgSess, wgReap sync.WaitGroup
	for t := 0; t < c.Tenants; t++ {
		ring := sys.Lib().NewRing(t, c.Depth)
		rings[t] = ring
		prepAt := make([]simtime.Time, perTenant)

		wgReap.Add(1)
		go func() {
			defer wgReap.Done()
			tl := simtime.NewTimeline(0)
			seen := 0
			for seen < perTenant {
				cqs := ring.Reap(tl, 1)
				if len(cqs) == 0 {
					return // ring closed early (a session errored out)
				}
				for _, cq := range cqs {
					if cq.Err != nil {
						ends.note(0, fmt.Errorf("tenant %d user %d: %w", t, cq.User, cq.Err))
						seen++
						continue
					}
					if cq.N != c.IOSize {
						ends.note(0, fmt.Errorf("tenant %d user %d: short read %d", t, cq.User, cq.N))
					}
					lat[t*perTenant+int(cq.User)] = cq.Done.Sub(prepAt[cq.User])
					seen++
				}
			}
			ends.note(tl.Now(), nil)
		}()

		for s := 0; s < c.Clients; s++ {
			wgSess.Add(1)
			go func() {
				defer wgSess.Done()
				tl := simtime.NewTimeline(0)
				f, err := sys.Open(tl, names[t])
				if err != nil {
					ends.note(0, err)
					return
				}
				defer f.Close(tl)
				bufs := make([][]byte, c.Batch)
				for i := range bufs {
					bufs[i] = make([]byte, c.IOSize)
				}
				staged := 0
				for i, off := range c.schedule(t, s, fileBytes) {
					u := uint64(s*c.Ops + i)
					prepAt[u] = tl.Now()
					// Ring-full is the admission control: yield until the
					// reaper frees a slot.
					for ring.PrepRead(f, bufs[staged], off, u) != nil {
						runtime.Gosched()
					}
					staged++
					if staged == c.Batch {
						ring.Submit(tl)
						staged = 0
					}
				}
				if staged > 0 {
					ring.Submit(tl)
				}
				ends.note(tl.Now(), nil)
			}()
		}
	}
	wgSess.Wait()
	for _, r := range rings {
		r.Close() // wakes any reaper stranded by a session error
	}
	wgReap.Wait()

	var backpressure int64
	for _, r := range rings {
		backpressure += r.Stats().Backpressure
	}
	ends.mu.Lock()
	defer ends.mu.Unlock()
	return simtime.Duration(ends.last), backpressure, ends.err
}

// ServeCells replays each cell (nil: both frontends at 1, 8 and 64
// tenants) on a fresh system and, where its telemetry is on, audits it.
// The replay is real goroutines — sessions and reapers — so unlike the
// deterministic sweeps a cell has no fingerprint and is not rerun.
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
	t := &Table{ID: "serve", Title: "Serve frontend: sync vs submission rings across tenant counts"}
	t.Note("sessions/tenant=%d ops/session=%d batch=%d iosize=%dKB file=%dMB approach=%v",
		c.Clients, c.Ops, c.Batch, c.IOSize>>10, c.FileMB, crossprefetch.CrossPredictOpt)
	t.Note("latency caveat: ring CQEs carry uncapped device completion times, " +
		"while sync reads cap in-flight waits (the blocking reader's demand-read " +
		"option) — sync p50/p99 and MB/s are optimistic by construction")
	var rows []*ServeResult
	for _, cl := range cells {
		// Memory holds half the aggregate dataset: the serving-tier shape
		// where misses are structural, the library's coverage prefetch
		// backs off at its low watermark, and the dispatch path — not
		// cache hits — decides queue depth and latency.
		sys := c.Build(int64(cl.Tenants) * c.FileMB << 20 / 2)
		if c.Observe != nil {
			c.Observe(sys)
		}
		res, err := serveRun{c, cl, sys}.run()
		if err == nil && sys.Telemetry() != nil {
			err = sys.AuditTelemetry()
		}
		if err != nil {
			return nil, fmt.Errorf("serve %s-t%d: %w", cl.Mode(), cl.Tenants, err)
		}
		rows = append(rows, res)
	}
	return render(t, serveFields, rows), nil
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
		sys := newSys(sysConfig{
			approach:   crossprefetch.CrossPredictOpt,
			memory:     memory,
			plug:       true,
			congestion: simtime.Second,
		})
		registerTelemetry(fmt.Sprintf("%v/%s/plug", crossprefetch.CrossPredictOpt, mb(memory)), sys)
		return sys
	}
	var cells []ServeCell
	if o.Quick {
		c.Batch = 4
		cells = serveGrid(1, 4)
	}
	return tableOf(ServeCells(c, cells))
}
