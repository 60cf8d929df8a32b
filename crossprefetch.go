// Package crossprefetch is a full-system reproduction of "CrossPrefetch:
// Accelerating I/O Prefetching for Modern Storage" (ASPLOS 2024) in pure
// Go.
//
// The package assembles the simulated stack — block device, file system,
// page cache, the CROSS-OS kernel extensions, and the CROSS-LIB user-level
// runtime — behind one Config/System pair:
//
//	sys := crossprefetch.NewSystem(crossprefetch.Config{
//		MemoryBytes: 1 << 30,
//		Approach:    crossprefetch.CrossPredictOpt,
//	})
//	tl := sys.Timeline()
//	f, _ := sys.Create(tl, "data")
//	f.WriteAt(tl, payload, 0)
//	f.ReadAt(tl, buf, 0)
//	fmt.Println(sys.Metrics())
//
// All I/O is charged in virtual time (see internal/simtime), so a System
// can model a 1.4 GB/s NVMe device, an 80GB page cache, and dozens of
// application threads deterministically on a laptop. The Approach knob
// switches between the paper's comparison configurations (Table 2): the
// APPonly and OSonly baselines, the CrossP[+predict] and
// CrossP[+predict+opt] cross-layered prefetchers, and the idealistic
// CrossP[+fetchall+opt] policy.
package crossprefetch

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/blockdev"
	"repro/internal/crosslib"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/readahead"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Approach selects one of the paper's comparison configurations.
type Approach = crosslib.Approach

// The comparison approaches (paper Table 2 and Table 5).
const (
	AppOnly          = crosslib.AppOnly
	AppOnlyFincore   = crosslib.AppOnlyFincore
	OSOnly           = crosslib.OSOnly
	CrossVisibility  = crosslib.CrossVisibility
	CrossPredict     = crosslib.CrossPredict
	CrossPredictOpt  = crosslib.CrossPredictOpt
	CrossFetchAllOpt = crosslib.CrossFetchAllOpt
)

// Layout selects the file-system allocation policy.
type Layout = fs.Layout

// File-system layouts.
const (
	LayoutExt4 = fs.LayoutExtent
	LayoutF2FS = fs.LayoutLog
)

// Config describes one simulated machine + process configuration.
// The zero value is usable: paper-testbed NVMe, ext4, 1GB of page cache,
// OSonly prefetching.
type Config struct {
	// Device is the storage model; zero value selects the paper's local
	// NVMe SSD. Use blockdev.RemoteNVMeConfig() for the NVMe-oF setup.
	Device blockdev.Config
	// Stripe stripes the local tier RAID-0 across this many device
	// instances (0 or 1 = single device; see blockdev.NewStack).
	Stripe int
	// StripeChunkBytes is the RAID-0 chunk size (default 256KB).
	StripeChunkBytes int64
	// Tier, when Tier.Enabled, layers the local device(s) over a remote
	// NVMe-oF tier with per-extent residency that moves one way: a read
	// promotes a hot or prefetched remote extent into free local capacity
	// under an optional cap, a write lands where its extent already is,
	// and nothing demotes. Cross-tier prefetch also deepens readahead over
	// remote extents (see blockdev.TierConfig).
	Tier blockdev.TierConfig
	// Layout selects ext4-like or F2FS-like allocation.
	Layout Layout
	// MemoryBytes is the page-cache budget (default 1GB).
	MemoryBytes int64
	// BlockSize is the page/block size (default 4KB).
	BlockSize int64
	// Approach selects the prefetching configuration under test.
	Approach Approach
	// KernelRAMaxBytes is the kernel's static prefetch window limit
	// (default 128KB; Figure 10 sweeps it).
	KernelRAMaxBytes int64
	// DemandRetries bounds the kernel's transparent retries of a
	// transient device fault on blocking paths — demand reads, fsync,
	// mmap faults (default 3; see internal/vfs).
	DemandRetries int
	// Deprecated: ignored; every read path plugs.
	Plug bool
	// CongestionLimit overrides the kernel's prefetch congestion cutoff:
	// asynchronous prefetch I/O is postponed once the device backlog
	// exceeds this much virtual time (default 5ms; see internal/vfs).
	CongestionLimit simtime.Duration
	// LibOptions, when non-nil, overrides Approach's CROSS-LIB options.
	LibOptions *crosslib.Options
	// Costs, when non-nil, overrides the calibrated CPU cost table.
	Costs *simtime.Costs
	// Telemetry enables the cross-layer observability subsystem: one
	// shared recorder threaded through the device, cache, kernel, and
	// library. Disabled (the default) it costs nothing on the hot paths.
	Telemetry bool
	// Trace enables request-scoped span tracing: sampled top-level
	// operations carry a span tree through library, kernel, cache, and
	// device, in virtual time, feeding the flight recorder and the
	// Chrome-trace / critical-path exports. Disabled (the default) it
	// costs one nil check and zero allocations on the hot paths.
	Trace bool
	// TraceSampleEvery samples 1-in-N top-level operations (default 1 =
	// every operation). Ignored when TracePerInode is set.
	TraceSampleEvery int64
	// TracePerInode switches to deterministic per-inode sampling: an
	// inode is either always or never traced, keyed by TraceSeed.
	TracePerInode bool
	// TraceSeed seeds the sampling hash (per-inode mode) so runs are
	// reproducible.
	TraceSeed int64
	// TraceKeepPerOp bounds the flight recorder: the slowest N root
	// spans per operation class are retained (default 8).
	TraceKeepPerOp int
	// Scorecard enables the online prefetch-effectiveness scorecards:
	// windowed per-inode and per-tenant accuracy / coverage / pollution /
	// timeliness, partitioned by page origin (see telemetry.Scorecard).
	// Requires Telemetry for the audit's partition identities; disabled
	// (the default) it costs one nil check on the hot paths.
	Scorecard bool
}

func (c Config) withDefaults() Config {
	if c.Device.Name == "" {
		c.Device = blockdev.NVMeConfig()
	}
	if c.MemoryBytes <= 0 {
		c.MemoryBytes = 1 << 30
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 4096
	}
	if c.KernelRAMaxBytes <= 0 {
		c.KernelRAMaxBytes = 128 << 10
	}
	return c
}

// System is one assembled simulated machine running one process
// configuration.
type System struct {
	cfg    Config
	dev    *blockdev.Stack
	fsys   *fs.FS
	cache  *pagecache.Cache
	kernel *vfs.VFS
	lib    *crosslib.Runtime

	rec   *telemetry.Recorder
	tr    *telemetry.Tracer
	score *telemetry.Scorecard

	// procMu guards procs: extra runtimes from NewProcess, tracked so
	// AuditTelemetry can sum library stats across all of them.
	procMu sync.Mutex
	procs  []*crosslib.Runtime
}

// NewSystem assembles the full stack for the given configuration.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	costs := simtime.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	cfg.Device.BlockSize = cfg.BlockSize
	dev := blockdev.NewStack(blockdev.StackConfig{
		Local:      cfg.Device,
		Width:      cfg.Stripe,
		ChunkBytes: cfg.StripeChunkBytes,
		Tier:       cfg.Tier,
	})
	fsys := fs.New(cfg.Layout, cfg.BlockSize, costs)
	cache := pagecache.New(pagecache.Config{
		BlockSize:     cfg.BlockSize,
		CapacityPages: cfg.MemoryBytes / cfg.BlockSize,
		Costs:         costs,
	}, nil)

	kcfg := vfs.Config{
		Costs: costs,
		RA:    readahead.Config{MaxPages: cfg.KernelRAMaxBytes / cfg.BlockSize},
		// The CROSS-OS kernel extension (limit relaxation) ships with
		// the Cross* approaches only.
		AllowLimitOverride: cfg.Approach.UsesLib(),
		DemandRetries:      cfg.DemandRetries,
		CongestionLimit:    cfg.CongestionLimit,
	}
	kernel := vfs.NewStack(kcfg, fsys, dev, cache)

	opts := cfg.Approach.Options()
	if cfg.LibOptions != nil {
		opts = *cfg.LibOptions
	}
	lib := crosslib.New(kernel, opts)

	s := &System{cfg: cfg, dev: dev, fsys: fsys, cache: cache, kernel: kernel, lib: lib}
	if cfg.Telemetry {
		s.rec = telemetry.NewRecorder(telemetry.DefaultEventCap)
		dev.SetTelemetry(s.rec)
		cache.SetTelemetry(s.rec)
		kernel.SetTelemetry(s.rec)
		lib.SetTelemetry(s.rec)
	}
	if cfg.Scorecard {
		s.score = telemetry.NewScorecard()
		cache.SetScorecard(s.score)
		lib.SetScorecard(s.score)
	}
	if cfg.Trace {
		s.tr = telemetry.NewTracer(telemetry.TraceConfig{
			SampleEvery: cfg.TraceSampleEvery,
			PerInode:    cfg.TracePerInode,
			Seed:        cfg.TraceSeed,
			KeepPerOp:   cfg.TraceKeepPerOp,
		})
		// Only the library needs the handle: it opens the root span per
		// top-level operation; lower layers read the active span off the
		// timeline.
		lib.SetTracer(s.tr)
	}
	return s
}

// Timeline returns a fresh virtual-time thread clock starting at zero.
func (s *System) Timeline() *simtime.Timeline { return simtime.NewTimeline(0) }

// Group returns a thread group for multi-threaded workloads.
func (s *System) Group() *simtime.Group { return simtime.NewGroup(0) }

// Kernel exposes the simulated kernel (advanced use).
func (s *System) Kernel() *vfs.VFS { return s.kernel }

// Lib exposes the CROSS-LIB runtime (advanced use).
func (s *System) Lib() *crosslib.Runtime { return s.lib }

// Device exposes the first block device of the stack — the whole device
// when the system is unstriped and untiered (compat accessor).
func (s *System) Device() *blockdev.Device { return s.dev.Member(0) }

// Stack exposes the composed device stack (striping/tier accessors,
// per-member stats).
func (s *System) Stack() *blockdev.Stack { return s.dev }

// FS exposes the file system.
func (s *System) FS() *fs.FS { return s.fsys }

// Cache exposes the page cache.
func (s *System) Cache() *pagecache.Cache { return s.cache }

// Config reports the system configuration (with defaults applied).
func (s *System) Config() Config { return s.cfg }

// Approach reports the configured approach.
func (s *System) Approach() Approach { return s.cfg.Approach }

// NewProcess returns an additional CROSS-LIB runtime instance over the
// same kernel — a separate "process" with its own fd table, predictors,
// range trees, helper threads, and memory-budget policy, sharing the page
// cache and device with everything else (the paper's multi-instance
// setting, §5.4).
func (s *System) NewProcess() *crosslib.Runtime {
	opts := s.cfg.Approach.Options()
	if s.cfg.LibOptions != nil {
		opts = *s.cfg.LibOptions
	}
	rt := crosslib.New(s.kernel, opts)
	rt.SetTracer(s.tr)
	rt.SetScorecard(s.score)
	if s.rec != nil {
		rt.SetTelemetry(s.rec)
		s.procMu.Lock()
		s.procs = append(s.procs, rt)
		s.procMu.Unlock()
	}
	return rt
}

// SetTenantBudget caps one tenant's page-cache footprint (pages; 0 =
// unlimited). The soft budget biases global reclaim toward the tenant's
// pages while it is over; the hard budget triggers targeted direct
// reclaim of the tenant's own oldest pages on its allocations. Tenant
// IDs match the ring/lane tenant (crosslib.Runtime.NewRing's first
// argument); untagged I/O is tenant 0.
func (s *System) SetTenantBudget(tenant int, softPages, hardPages int64) {
	s.cache.SetTenantBudget(tenant, softPages, hardPages)
}

// TenantStats snapshots the per-tenant page-cache ledgers, ordered by
// tenant ID. The residencies always partition Cache().Used() exactly.
func (s *System) TenantStats() []pagecache.TenantStats {
	return s.cache.TenantStats()
}

// Telemetry exposes the shared recorder, or nil when Config.Telemetry is
// off.
func (s *System) Telemetry() *telemetry.Recorder { return s.rec }

// Tracer exposes the span tracer, or nil when Config.Trace is off.
func (s *System) Tracer() *telemetry.Tracer { return s.tr }

// Scorecard exposes the online effectiveness scorecards, or nil when
// Config.Scorecard is off.
func (s *System) Scorecard() *telemetry.Scorecard { return s.score }

// ErrTelemetryDisabled is returned by AuditTelemetry on a system built
// without Config.Telemetry.
var ErrTelemetryDisabled = errors.New("crossprefetch: telemetry disabled")

// AuditTelemetry snapshots the recorder and reconciles every layer's
// account of the prefetch pipeline (see telemetry.Audit). It returns nil
// when all invariants hold. Call it at a quiescent point (the inline
// worker pool guarantees one after any I/O call returns).
func (s *System) AuditTelemetry() error {
	if s.rec == nil {
		return ErrTelemetryDisabled
	}
	st := s.lib.Stats()
	saved := st.SavedPrefetches
	dropped := st.DroppedPrefetch
	droppedBrk := st.DroppedBreaker
	evicted := st.EvictedPages
	s.procMu.Lock()
	for _, rt := range s.procs {
		st := rt.Stats()
		saved += st.SavedPrefetches
		dropped += st.DroppedPrefetch
		droppedBrk += st.DroppedBreaker
		evicted += st.EvictedPages
	}
	s.procMu.Unlock()
	var tenants []telemetry.TenantLedger
	for _, ts := range s.cache.TenantStats() {
		tenants = append(tenants, telemetry.TenantLedger{
			ID:       ts.ID,
			Resident: ts.Resident,
			Inserted: ts.Inserted,
			Evicted:  ts.Evicted,
		})
	}
	if err := telemetry.Audit(s.snapshot(), telemetry.AuditInput{
		BlockSize:          s.cfg.BlockSize,
		CacheUsed:          s.cache.Used(),
		LibSavedPrefetches: saved,
		LibDroppedPrefetch: dropped,
		LibDroppedBreaker:  droppedBrk,
		LibEvictedPages:    evicted,
		HasLibStats:        true,
		StrictDevice:       true,
		Tenants:            tenants,
		HasTenants:         true,
	}); err != nil {
		return err
	}
	// With the scorecards on, their per-inode cards must partition the
	// recorder's per-origin counters exactly — same events, two ledgers.
	if s.score != nil {
		for o := telemetry.Origin(0); o < telemetry.NumOrigins; o++ {
			si, su, sw := s.score.OriginTotals(o)
			ri, ru, rw := s.rec.OriginTotals(o)
			if si != ri || su != ru || sw != rw {
				return fmt.Errorf("crossprefetch: scorecard origin %s totals %d/%d/%d != recorder %d/%d/%d",
					o, si, su, sw, ri, ru, rw)
			}
		}
		// The ensemble's per-(inode,arm) shadow cards must sum to the
		// recorder's shadow counters — same bookings, two ledgers. Only
		// exact while the arm table has not spilled into its overflow card
		// (the overflow card mixes arms and cannot be attributed).
		if !s.score.ArmOverflowed() {
			var si, su, sw int64
			for a := telemetry.Arm(0); a < telemetry.NumArms; a++ {
				ai, au, aw := s.score.ArmTotals(a)
				si += ai
				su += au
				sw += aw
			}
			ri := s.rec.CounterValue(telemetry.CtrPredShadowIssuedPages)
			ru := s.rec.CounterValue(telemetry.CtrPredShadowHitPages)
			rw := s.rec.CounterValue(telemetry.CtrPredShadowExpiredPages)
			if si != ri || su != ru || sw != rw {
				return fmt.Errorf("crossprefetch: scorecard arm shadow totals %d/%d/%d != recorder shadow counters %d/%d/%d",
					si, su, sw, ri, ru, rw)
			}
		}
	}
	return nil
}

// snapshot captures the recorder and attaches the tracer's stats so the
// audit (and any export) can reconcile spans against counters.
func (s *System) snapshot() *telemetry.Snapshot {
	snap := s.rec.Snapshot()
	if snap != nil {
		snap.Trace = s.tr.Stats()
	}
	return snap
}

// Open opens a file through the configured approach's I/O path.
func (s *System) Open(tl *simtime.Timeline, name string) (*crosslib.File, error) {
	return s.lib.Open(tl, name)
}

// Create creates and opens a file through the configured I/O path.
func (s *System) Create(tl *simtime.Timeline, name string) (*crosslib.File, error) {
	return s.lib.Create(tl, name)
}

// CreateSynthetic provisions a fully mapped file of the given logical size
// whose unwritten blocks read as deterministic filler — the cheap way to
// set up paper-scale read workloads. A size past 2^32 blocks fails with
// vfs.ErrFileTooLarge.
func (s *System) CreateSynthetic(tl *simtime.Timeline, name string, size int64) error {
	_, err := s.kernel.CreateSynthetic(tl, name, size)
	return err
}

// DropAllCaches clears the kernel page cache and the runtime's user-level
// cache belief — the paper clears caches before every measured phase.
func (s *System) DropAllCaches(tl *simtime.Timeline) {
	s.cache.DropAll(tl)
	s.lib.DropCaches(tl)
}

// Metrics is a cross-layer snapshot used by the benchmark harness.
type Metrics struct {
	Cache pagecache.Stats
	// Device aggregates the whole stack; Backends carries one entry per
	// member (empty on a single-device system), and Tier the extent
	// placement accounting (zero when untiered).
	Backends   []blockdev.Stats
	Tier       blockdev.TierStats
	Device     blockdev.Stats
	Lib        crosslib.Stats
	Prefetch   int64 // prefetch-related kernel crossings
	Reads      int64
	Writes     int64
	MmapFaults int64
	// Telemetry is the cross-layer recorder snapshot; nil unless
	// Config.Telemetry is set. When Config.Trace is also set its Trace
	// field carries the tracer's sampling and page totals.
	Telemetry *telemetry.Snapshot
	// Trace is the span tracer's stats; nil unless Config.Trace is set.
	Trace *telemetry.TraceStats
}

// Metrics snapshots all layers.
func (s *System) Metrics() Metrics {
	var backends []blockdev.Stats
	if s.dev.NumMembers() > 1 {
		backends = s.dev.MemberStats()
	}
	return Metrics{
		Cache:      s.cache.Stats(),
		Backends:   backends,
		Tier:       s.dev.TierStats(0),
		Device:     s.dev.Stats(),
		Lib:        s.lib.Stats(),
		Prefetch:   s.kernel.PrefetchSyscalls(),
		Reads:      s.kernel.SyscallCount(vfs.SysRead),
		Writes:     s.kernel.SyscallCount(vfs.SysWrite),
		MmapFaults: s.kernel.SyscallCount(vfs.SysMmapFault),
		Telemetry:  s.snapshot(),
		Trace:      s.tr.Stats(),
	}
}
