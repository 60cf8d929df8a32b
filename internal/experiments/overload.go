package experiments

import (
	"fmt"
	"strings"

	crossprefetch "repro"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// OverloadCell is one policy point of the overload sweep: well-behaved
// zipfian victim tenants sharing the page cache with (optionally) an
// antagonist tenant scanning a file larger than memory.
type OverloadCell struct {
	Name       string
	Antagonist bool // run the scanning tenant (ID 0)
	// Budgeted gives every tenant — antagonist included, so its scan can
	// only evict its own pages — the sweep's hard page-cache budget
	// (soft budget = half of it).
	Budgeted bool
	// Deadline, when > 0, attaches now+Deadline virtual deadlines to the
	// coverage prefetches issued ahead of victim reads; sheds are counted
	// but never affect the reads themselves, so client byte totals stay
	// identical across cells.
	Deadline simtime.Duration
}

// overloadCells is the noisy-neighbor table: the victims alone, then
// against the scan under no budgets, hard budgets, and budgets plus
// prefetch deadlines.
var overloadCells = []OverloadCell{
	{Name: "isolated"},
	{Name: "no-budget", Antagonist: true},
	{Name: "budget", Antagonist: true, Budgeted: true},
	{Name: "budget+deadline", Antagonist: true, Budgeted: true, Deadline: 50 * simtime.Microsecond},
}

var (
	overloadFull  = SweepConfig{Clients: 4, Ops: 200, IOSize: 64 << 10, FileMB: 16}
	overloadQuick = SweepConfig{Clients: 2, Ops: 48, IOSize: 16 << 10, FileMB: 4}
)

// overloadRun sizes the overload cells: Clients victim tenants (IDs
// 1..Clients) each read Ops zipfian IOSize chunks of their own FileMB file
// while the antagonist (ID 0) scans a scanMB file once.
type overloadRun struct {
	SweepConfig
	scanMB int64
	// memMB is the page cache: half of Clients+1 victim files, so the
	// victims' aggregate working set fits and the antagonist's scan does not.
	memMB int64
}

// OverloadResult is one cell's scorecard.
type OverloadResult struct {
	// fingerprint's digest covers the full latency vector plus the final
	// tenant ledgers.
	fingerprint
	Cell        OverloadCell
	Victims     int
	BudgetPages int64 // 0 in the cells without budgets
	VictimOps   int64
	VictimBytes int64 // client bytes read by victims (identical across cells)
	VictimP50   simtime.Duration
	VictimP99   simtime.Duration
	// P99VsIsolated is VictimP99 over the isolated cell's.
	P99VsIsolated float64
	ScanBytes     int64 // antagonist client bytes
	// Overload-machinery counters for the cell.
	ShedSQEs       int64
	DeadlineMisses int64
	TenantReclaims int64
}

var overloadFields = []field[*OverloadResult]{
	{"cell", "cell", "%s", func(r *OverloadResult) any { return r.Cell.Name }},
	{"", "victims", "", func(r *OverloadResult) any { return r.Victims }},
	{"victim-ops", "victim_ops", "%d", func(r *OverloadResult) any { return r.VictimOps }},
	{"victim-MB", "victim_mb", "%.1f", func(r *OverloadResult) any { return mbytes(r.VictimBytes) }},
	{"p50-us", "p50_us", "%.1f", func(r *OverloadResult) any { return usec(r.VictimP50) }},
	{"p99-us", "p99_us", "%.1f", func(r *OverloadResult) any { return usec(r.VictimP99) }},
	{"p99-vs-isolated", "p99_vs_isolated", "%.2fx", func(r *OverloadResult) any { return r.P99VsIsolated }},
	{"scan-MB", "scan_mb", "%.1f", func(r *OverloadResult) any { return mbytes(r.ScanBytes) }},
	{"", "budget_pages", "", func(r *OverloadResult) any { return r.BudgetPages }},
	{"shed-sqes", "shed_sqes", "%d", func(r *OverloadResult) any { return r.ShedSQEs }},
	{"dl-miss", "deadline_misses", "%d", func(r *OverloadResult) any { return r.DeadlineMisses }},
	{"t-reclaims", "tenant_reclaims", "%d", func(r *OverloadResult) any { return r.TenantReclaims }},
	{"", "determinism_digest", "", func(r *OverloadResult) any { return r.hexDigest() }},
	// A row exists only if its audit passed.
	{"", "audit", "", func(*OverloadResult) any { return "ok" }},
}

// overloadStep is one read through the tenant's ring: an optional
// deadline-carrying coverage prefetch (sheddable; never the read), then
// the read itself.
func overloadStep(deadline simtime.Duration) stepFunc {
	const prefetchTag = ^uint64(0)
	return func(rd *reader, off int64) (n int64, done simtime.Time, err error) {
		if deadline > 0 {
			err = rd.ring.PrepPrefetch(rd.f, off, int64(len(rd.buf)), prefetchTag, rd.tl.Now().Add(deadline))
			if err != nil {
				return
			}
		}
		if err = rd.ring.PrepRead(rd.f, rd.buf, off, uint64(rd.next)); err != nil {
			return
		}
		rd.ring.Submit(rd.tl)
		for _, cq := range rd.ring.Reap(rd.tl, 1) {
			if cq.User != prefetchTag { // a prefetch's shed is visible in the counters only
				n, done, err = cq.N, cq.Done, cq.Err
			}
		}
		return
	}
}

// replay runs one cell: every tenant gets its own file, descriptor and
// ring before caches are dropped (so the library's open-time prefetch is
// dropped with them), and the antagonist streams four chunks for every
// one read each victim makes, so its scan pressure overlaps the entire
// victim replay.
func (c overloadRun) replay(r *cellRun, cl OverloadCell, budget int64) (*OverloadResult, error) {
	tenant := func(id int, name string, mb, io int64) (*reader, error) {
		truth, err := r.create(name, mb)
		if err != nil {
			return nil, err
		}
		rd, err := r.open(truth, nil, io)
		if err != nil {
			return nil, err
		}
		rd.ring = r.sys.Lib().NewRing(id, 64)
		return rd, nil
	}
	var victims []*reader
	for i := 0; i < c.Clients; i++ {
		v, err := tenant(i+1, fmt.Sprintf("overload-v%02d", i+1), c.FileMB, c.IOSize)
		if err != nil {
			return nil, err
		}
		v.offs = offsets(patZipfian, v.truth.Size()/c.IOSize, c.IOSize, c.Ops, c.Seed+int64(i)*7919)
		victims = append(victims, v)
	}
	readers := victims
	res := &OverloadResult{Cell: cl, Victims: c.Clients}
	if cl.Antagonist {
		// 128KB chunks: half a DRR quantum, so the lane scheduler can
		// interleave victim reads between antagonist chunks instead of
		// the scan monopolizing a full quantum per dispatch round.
		const scanChunk = 128 << 10
		antag, err := tenant(0, "overload-antagonist", c.scanMB, scanChunk)
		if err != nil {
			return nil, err
		}
		chunks := antag.truth.Size() / scanChunk
		antag.offs = offsets(patSequential, chunks, scanChunk, int(chunks), 0)
		antag.burst = 4
		readers = append([]*reader{antag}, victims...)
		res.ScanBytes = chunks * scanChunk
	}
	if cl.Budgeted {
		res.BudgetPages = budget
		for id := 0; id <= c.Clients; id++ {
			r.sys.SetTenantBudget(id, budget/2, budget)
		}
	}
	r.dropCaches()
	if err := replay(readers, toEnd, overloadStep(cl.Deadline)); err != nil {
		return nil, err
	}
	for _, rd := range readers {
		rd.ring.Close()
	}

	var all []simtime.Duration
	for _, v := range victims {
		all = append(all, v.lat...)
		res.VictimBytes += v.bytesRead()
	}
	res.VictimOps = int64(len(all))
	res.VictimP50, res.VictimP99 = tail(all)
	snap := r.sys.Telemetry().Snapshot()
	res.ShedSQEs = snap.Counter(telemetry.CtrRingShedSQEs)
	res.DeadlineMisses = snap.Counter(telemetry.CtrRingDeadlineMisses)
	res.TenantReclaims = snap.Counter(telemetry.CtrCacheTenantReclaims)

	var h strings.Builder
	for _, d := range all {
		fmt.Fprintf(&h, "%d,", d)
	}
	for _, ts := range r.sys.TenantStats() {
		fmt.Fprintf(&h, "t%d:%d/%d/%d;", ts.ID, ts.Resident, ts.Inserted, ts.Evicted)
	}
	res.Digest = digest(nil, h.String())
	return res, nil
}

// sys is one cell's system: telemetry and scorecards on (the audit is
// part of the contract; the admin plane reads the rest), and 4 KB blocks,
// the pages the tenant budgets count.
func (c overloadRun) sys() crossprefetch.Config {
	return crossprefetch.Config{
		Approach:    crossprefetch.CrossPredictOpt,
		MemoryBytes: c.memMB << 20,
		BlockSize:   4 << 10,
		Telemetry:   true,
		Scorecard:   true,
	}
}

// Overload reproduces the noisy-neighbor table. Victim client bytes are
// identical in every cell by construction; with budgets on, the antagonist
// may cost the victims at most 2x their isolated p99.
func Overload(o Options) (*Report, error) {
	c := overloadRun{SweepConfig: o.sizing(overloadFull, overloadQuick)}
	c.scanMB = 8 * c.FileMB
	if o.Quick {
		c.scanMB = 16
	}
	tenants := int64(c.Clients + 1)
	c.memMB = tenants * c.FileMB / 2
	// The budgeted cells' hard per-tenant budget is two equal shares of the
	// cache, soft = one share: the victims' zipf hot sets sit well under a
	// share, so they pay almost no direct-reclaim tax; the scan slams into
	// the hard cap immediately and can only recycle its own pages. Budgets
	// are in pages of the system's block size.
	cfg := c.sys()
	budget := 2 * (cfg.MemoryBytes / cfg.BlockSize) / tenants

	s := sweep[*OverloadResult]{
		table:  &Table{ID: "overload", Title: "Tenant isolation under an antagonist scan: budgets and deadlines"},
		fields: overloadFields,
		contract: func(_ []*OverloadResult, at func(cell string) *OverloadResult) error {
			isolated := at("isolated")
			for _, cl := range overloadCells {
				r := at(cl.Name)
				if want := int64(c.Clients*c.Ops) * c.IOSize; r.VictimBytes != want {
					return fmt.Errorf("%s: victim bytes %d, want %d", r.Cell.Name, r.VictimBytes, want)
				}
				r.P99VsIsolated = usec(r.VictimP99) / usec(isolated.VictimP99)
				if r.Cell.Budgeted && r.VictimP99 > 2*isolated.VictimP99 {
					return fmt.Errorf("%s: victim p99 %v > 2x isolated %v",
						r.Cell.Name, r.VictimP99, isolated.VictimP99)
				}
			}
			return nil
		},
	}
	s.table.Note("victims=%d ops=%d iosize=%dKB victim-file=%dMB scan=%dMB budget=%d pages (hard; soft=half)",
		c.Clients, c.Ops, c.IOSize>>10, c.FileMB, c.scanMB, budget)
	s.table.Note("every returned byte verified; telemetry audit incl. exact tenant residency partition passed in all cells; every cell re-run and digest-compared for determinism")
	for _, cl := range overloadCells {
		s.cells = append(s.cells, sweepCell[*OverloadResult]{
			name:   cl.Name,
			cfg:    cfg,
			replay: func(r *cellRun) (*OverloadResult, error) { return c.replay(r, cl, budget) },
		})
	}
	return s.run(o)
}
