// Package vfs implements the simulated kernel's system-call layer,
// including the CROSS-OS extensions from the paper:
//
//   - the classic POSIX surface: open, pread/pwrite, readahead(2),
//     fadvise(2), fincore, fsync, mmap;
//   - the new multi-purpose readahead_info system call (§4.4), which in a
//     single kernel crossing prefetches missing blocks via the bitmap fast
//     path, exports a window of the per-inode cache bitmap, and returns
//     OS telemetry (per-file cache usage, hit/miss counters, free memory);
//   - the prefetch-limit relaxation (§4.7): readahead_info requests may
//     exceed the kernel's static window cap when the VFS is configured to
//     allow it, with requests chunked at the 2MB VFS I/O granularity.
//
// Every call charges a fixed syscall crossing plus per-page costs in
// virtual time; data reads/writes move real bytes through internal/fs.
package vfs

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/readahead"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// maxVFSRequest is the largest single device request the VFS issues (the
// paper: "the VFS layer limits an I/O request to a maximum of 2MB").
const maxVFSRequest = 2 << 20

// maxPrefetchBytes caps a single readahead_info request even with the
// limit override (paper: 64MB).
const maxPrefetchBytes = 64 << 20

// Config carries the kernel tunables.
type Config struct {
	// Costs is the CPU cost table.
	Costs simtime.Costs
	// RA configures the kernel readahead state machine; RA.MaxPages is
	// the static prefetch limit Figure 10 sweeps.
	RA readahead.Config
	// AllowLimitOverride lets readahead_info callers exceed RA.MaxPages
	// (the CROSS-OS "+opt" path, §4.7).
	AllowLimitOverride bool
	// CongestionLimit is the prefetch congestion-control threshold: once
	// the device's queued transfers extend this far into the future,
	// further asynchronous prefetch is postponed so blocking I/O is not
	// delayed (§4.7). Zero selects the default.
	CongestionLimit simtime.Duration
	// DemandRetries bounds how many times a blocking (demand read,
	// fsync) or writeback device request retries a transient fault
	// before the error surfaces, backing off per demandRetryBase and
	// demandRetryMax. Zero selects 3 retries.
	DemandRetries int
	// Sched configures the block-layer submission scheduler every read
	// path unplugs through (merge window, queue depth; zero fields select
	// the defaults).
	Sched blockdev.PlugConfig
}

// DefaultConfig returns Linux-like defaults on the paper's testbed.
func DefaultConfig() Config {
	return Config{
		Costs:              simtime.DefaultCosts(),
		RA:                 readahead.DefaultConfig(),
		AllowLimitOverride: false,
	}
}

// Syscall identifies a system call for the counter table.
type Syscall int

// Syscall identifiers.
const (
	SysOpen Syscall = iota
	SysRead
	SysWrite
	SysFsync
	SysReadahead
	SysFadvise
	SysFincore
	SysReadaheadInfo
	SysMmapFault
	SysClose
	// SysRingEnter is the one crossing a whole ring submission batch
	// costs, however many SQEs it carries (the io_uring_enter analogue).
	SysRingEnter
	numSyscalls
)

// String names the syscall.
func (s Syscall) String() string {
	return [...]string{"open", "read", "write", "fsync", "readahead",
		"fadvise", "fincore", "readahead_info", "mmap_fault", "close",
		"ring_enter"}[s]
}

// readStack is the device stack as the kernel's read paths see it: they
// build the plugs and lane sets that carry every read to the device, and
// ask its cost, backlog and tier geometry. It has no Access method, so a
// read that skips the plug (its merging, queue depth, congestion control
// and per-command accounting) or reaches a member device does not
// compile. The write paths hold the stack through stackWriter
// (writeback.go).
type readStack interface {
	NewPlug(cfg blockdev.PlugConfig) *blockdev.StackPlug
	NewLaneSet(cfg blockdev.LaneConfig, rec *telemetry.Recorder) *blockdev.LaneSet
	Backlog(at simtime.Time) simtime.Duration
	BacklogFor(at simtime.Time, off, bytes int64) simtime.Duration
	SyncCost(op blockdev.Op, bytes int64) simtime.Duration
	PrefetchBoostFor(off, bytes int64) int64
	Tiered() bool
}

// VFS is one simulated kernel instance: a file system on a device plus the
// shared page cache.
type VFS struct {
	cfg   Config
	fsys  *fs.FS
	dev   readStack
	wr    stackWriter
	cache *pagecache.Cache

	// mmapLock models the per-address-space lock fincore/mincore hold
	// while building cache residency info (§2.1).
	mmapLock *simtime.Ledger

	counters [numSyscalls]atomic.Int64

	// openFiles tracks live open file descriptions (Open/Create minus
	// Close) so descriptor leaks are observable.
	openFiles atomic.Int64

	// rec, when non-nil, receives syscall latency histograms and the
	// cross-layer prefetch accounting counters (telemetry opt-in).
	rec *telemetry.Recorder

	// plugs pools per-request block plugs (see getPlug) so the miss
	// paths stay allocation-free in steady state.
	plugs sync.Pool

	// lanes is the multi-tenant ring dispatch stage (see ring.go):
	// RingEnter stages device work on per-tenant lanes and drains them
	// fair-share through one shared plug.
	lanes *blockdev.LaneSet
}

// NewStack assembles a kernel over a composed device stack (striped
// and/or tiered; see blockdev.NewStack; blockdev.WrapDevice adapts a bare
// device). All read and write paths route through the stack, so
// per-backend queueing, congestion, and tier residency are visible to
// prefetch policy. It installs the cache's dirty-page writeback hook.
func NewStack(cfg Config, fsys *fs.FS, dev *blockdev.Stack, cache *pagecache.Cache) *VFS {
	if cfg.RA.MaxPages <= 0 {
		cfg.RA = readahead.DefaultConfig()
	}
	if cfg.CongestionLimit <= 0 {
		cfg.CongestionLimit = 5 * simtime.Millisecond
	}
	if cfg.DemandRetries <= 0 {
		cfg.DemandRetries = 3
	}
	cfg.Sched = cfg.Sched.WithDefaults()
	v := &VFS{
		cfg:      cfg,
		fsys:     fsys,
		dev:      dev,
		wr:       stackWriter{dev},
		cache:    cache,
		mmapLock: simtime.NewLedger("mmap_lock"),
	}
	v.plugs.New = func() any { return v.dev.NewPlug(v.cfg.Sched) }
	v.lanes = v.dev.NewLaneSet(blockdev.LaneConfig{
		Plug:  v.cfg.Sched,
		Retry: v.retryPolicy(),
	}, nil)
	cache.SetFlushFn(v.flushRun)
	return v
}

// The demand-path retry backoff: demandRetryBase before the first retry,
// doubling each attempt, and no single wait longer than demandRetryMax —
// the exponential demandRetryBase << (attempt-1) clamps there instead of
// overflowing (or exploding the virtual wait) for large retry budgets.
const (
	demandRetryBase = 50 * simtime.Microsecond
	demandRetryMax  = 10 * simtime.Millisecond
)

// retryPolicy bundles the demand-path retry tunables for the plug layer.
func (v *VFS) retryPolicy() blockdev.RetryPolicy {
	return blockdev.RetryPolicy{
		Max:  v.cfg.DemandRetries,
		Base: demandRetryBase,
		Cap:  demandRetryMax,
	}
}

// getPlug returns a reset per-request stack plug from the pool; read
// paths submit all device I/O through it (readStack offers no other way).
func (v *VFS) getPlug() *blockdev.StackPlug {
	p := v.plugs.Get().(*blockdev.StackPlug)
	p.Reset()
	return p
}

func (v *VFS) putPlug(p *blockdev.StackPlug) { v.plugs.Put(p) }

// SetTelemetry installs the telemetry recorder (nil disables) and
// registers the syscall names for the latency table.
func (v *VFS) SetTelemetry(rec *telemetry.Recorder) {
	v.rec = rec
	v.lanes.SetTelemetry(rec)
	for s := Syscall(0); s < numSyscalls; s++ {
		rec.RegisterSyscall(int(s), s.String())
	}
}

// Cache exposes the page cache (telemetry, tests).
func (v *VFS) Cache() *pagecache.Cache { return v.cache }

// FS exposes the file system.
func (v *VFS) FS() *fs.FS { return v.fsys }

// Config reports the kernel configuration.
func (v *VFS) Config() Config { return v.cfg }

// BlockSize reports the page/block size.
func (v *VFS) BlockSize() int64 { return v.fsys.BlockSize() }

// SyscallCount reports invocations of one syscall.
func (v *VFS) SyscallCount(s Syscall) int64 { return v.counters[s].Load() }

// OpenFiles reports live open file descriptions (opens minus closes).
func (v *VFS) OpenFiles() int64 { return v.openFiles.Load() }

// PrefetchSyscalls reports the total prefetch-related kernel crossings
// (readahead + fadvise + readahead_info) — the overhead CROSS-LIB's cache
// awareness is designed to reduce.
func (v *VFS) PrefetchSyscalls() int64 {
	return v.counters[SysReadahead].Load() +
		v.counters[SysFadvise].Load() +
		v.counters[SysReadaheadInfo].Load()
}

func (v *VFS) enter(tl *simtime.Timeline, s Syscall) {
	v.counters[s].Add(1)
	if tl != nil {
		tl.Advance(v.cfg.Costs.Syscall)
	}
}

// File is an open file description (one per open(2), like struct file):
// it carries its own readahead state and file position.
type File struct {
	v   *VFS
	ino *fs.Inode
	fc  *pagecache.FileCache

	mu     sync.Mutex
	ra     readahead.State
	pos    int64
	closed bool
}

// Inode exposes the underlying inode.
func (f *File) Inode() *fs.Inode { return f.ino }

// FileCache exposes the per-inode cache state.
func (f *File) FileCache() *pagecache.FileCache { return f.fc }

// Size reports the current file size.
func (f *File) Size() int64 { return f.ino.Size() }

// Open opens an existing file.
func (v *VFS) Open(tl *simtime.Timeline, name string) (*File, error) {
	v.enter(tl, SysOpen)
	ino, err := v.fsys.Open(name)
	if err != nil {
		return nil, err
	}
	v.openFiles.Add(1)
	return &File{v: v, ino: ino, fc: v.cache.File(ino.ID())}, nil
}

// Create creates and opens a new file.
func (v *VFS) Create(tl *simtime.Timeline, name string) (*File, error) {
	v.enter(tl, SysOpen)
	ino, err := v.fsys.Create(tl, name)
	if err != nil {
		return nil, err
	}
	v.openFiles.Add(1)
	return &File{v: v, ino: ino, fc: v.cache.File(ino.ID())}, nil
}

// CreateSynthetic provisions a fully mapped file of size bytes whose
// unwritten blocks read as deterministic filler (fs.FS.CreateSynthetic),
// refusing with ErrFileTooLarge a size past pagecache.MaxPages blocks. It
// is set-up, not a syscall: it charges and counts nothing.
func (v *VFS) CreateSynthetic(tl *simtime.Timeline, name string, size int64) (*fs.Inode, error) {
	if size > 0 && v.beyondMaxPages(0, size) {
		return nil, ErrFileTooLarge
	}
	return v.fsys.CreateSynthetic(tl, name, size)
}

// Close releases the open file description. Idempotent: only the first
// call charges the syscall and decrements the open count.
func (f *File) Close(tl *simtime.Timeline) {
	f.mu.Lock()
	closed := f.closed
	f.closed = true
	f.mu.Unlock()
	if closed {
		return
	}
	f.v.enter(tl, SysClose)
	f.v.openFiles.Add(-1)
}

// OpenOrCreate opens name, creating it if absent.
func (v *VFS) OpenOrCreate(tl *simtime.Timeline, name string) (*File, error) {
	if f, err := v.Open(tl, name); err == nil {
		return f, nil
	}
	return v.Create(tl, name)
}

// Remove deletes a file and drops its cached pages.
func (v *VFS) Remove(tl *simtime.Timeline, name string) error {
	v.enter(tl, SysOpen)
	ino, err := v.fsys.Open(name)
	if err != nil {
		return err
	}
	v.cache.DropFile(tl, ino.ID())
	return v.fsys.Remove(tl, name)
}

// blockRange converts a byte range to the covering block range.
func (v *VFS) blockRange(off, n int64) (lo, hi int64) {
	bs := v.BlockSize()
	return off / bs, (off + n + bs - 1) / bs
}

// chunk is the unit of the way down: a hole of a file (zero-fill, no
// device work; bytes == 0) or at most maxVFSRequest of one physical
// extent, as logical blocks [lo, lo+blocks) and device range
// [devOff, devOff+bytes).
type chunk struct {
	lo, blocks    int64
	devOff, bytes int64
}

// eachChunk cuts logical-block runs into chunks, in file order: each run
// over the file's physical extents, each extent at the VFS request size —
// the one place that limit is applied. Holes inside a run are visited too;
// callers that only move data skip them. visit returning false ends the
// walk.
func (f *File) eachChunk(runs []bitmap.Run, visit func(c chunk) bool) {
	bs := f.v.BlockSize()
	for _, r := range runs {
		cursor := r.Lo
		var physBuf [4]fs.PhysRun
		for _, pr := range f.ino.AppendMapRange(physBuf[:0], r.Lo, r.Hi) {
			if pr.Logical > cursor && !visit(chunk{lo: cursor, blocks: pr.Logical - cursor}) {
				return
			}
			lo, devOff := pr.Logical, pr.Phys*bs
			for remaining := pr.Count * bs; remaining > 0; {
				bytes := min(remaining, maxVFSRequest)
				blocks := (bytes + bs - 1) / bs
				if !visit(chunk{lo: lo, blocks: blocks, devOff: devOff, bytes: bytes}) {
					return
				}
				lo, devOff, remaining = lo+blocks, devOff+bytes, remaining-bytes
			}
			cursor = pr.Logical + pr.Count
		}
		if cursor < r.Hi && !visit(chunk{lo: cursor, blocks: r.Hi - cursor}) {
			return
		}
	}
}

// segGroup reports the end index and page count of the group of plug
// segments starting at i that one device command carried for logically
// contiguous blocks — the unit an unplug's results are booked in.
func segGroup(segs []blockdev.Segment, i int, bs int64) (end int, blocks int64) {
	first := &segs[i]
	for end = i; end < len(segs) && segs[end].Cmd == first.Cmd && segs[end].UserLo == first.UserLo+blocks; end++ {
		blocks += (segs[end].Bytes + bs - 1) / bs
	}
	return end, blocks
}

// faultEvents records one device-fault trace event per failed plug
// command (not per segment: the audit bounds fault events by injected
// faults, and a command fails at most once per injection).
func (f *File) faultEvents(at simtime.Time, segs []blockdev.Segment, bs int64) {
	for i, s := range segs {
		if s.Err == nil {
			continue
		}
		dup := false
		for j := 0; j < i; j++ {
			if segs[j].Cmd == s.Cmd {
				dup = true
				break
			}
		}
		if !dup {
			f.v.rec.Event(at, telemetry.OutcomeDeviceFault,
				f.ino.ID(), s.UserLo, s.UserLo+(s.Bytes+bs-1)/bs)
		}
	}
}

// bookDemand books one completed demand read of pages [lo, lo+blocks):
// the cross-layer counters, and the pages inserted ready at readyAt (zero:
// the reader already waited for them) for tenant.
func (f *File) bookDemand(tl *simtime.Timeline, lo, blocks int64, readyAt simtime.Time, tenant int) {
	f.v.rec.Add(telemetry.CtrVFSDemandFetchPages, blocks)
	telemetry.CountPages(tl, telemetry.PageDemand, blocks)
	f.fc.InsertRange(tl, lo, lo+blocks, pagecache.InsertOptions{ReadyAt: readyAt, MarkerAt: -1, Tenant: tenant})
}

// bookPrefetch books one completed prefetch read of pages [lo, lo+blocks):
// the cross-layer counters, and the pages inserted as opts says (ready
// time, readahead marker, provenance). It returns the pages inserted —
// those not already resident.
func (f *File) bookPrefetch(tl *simtime.Timeline, lo, blocks int64, opts pagecache.InsertOptions) int64 {
	f.v.rec.Add(telemetry.CtrVFSPrefetchDevicePages, blocks)
	telemetry.CountPages(tl, telemetry.PagePrefetch, blocks)
	n := f.fc.InsertRange(tl, lo, lo+blocks, opts)
	f.v.rec.Add(telemetry.CtrVFSPrefetchInsertedPages, n)
	return n
}

// fetchRuns synchronously reads the given missing logical-block runs from
// the device, charging the thread, and inserts the pages — each chunk
// strictly after its device read succeeded, so a failed read can never
// leave bitmap bits or tree entries claiming data that was never
// fetched (cache poisoning). Hole blocks (unmapped) are zero-fill and
// insert without I/O. The walk accumulates the chunks in a plug; one
// unplug dispatches the merged commands on the priority lane, with
// per-command transient-fault retry, and then inserts each successful
// command's logically-contiguous extents. A failed command inserts
// nothing and leaves its pages absent for a later retry by the caller;
// chunks already fetched stay cached, and the error propagates.
func (f *File) fetchRuns(tl *simtime.Timeline, runs []bitmap.Run) (err error) {
	sp := telemetry.Begin(tl, "vfs.demand_fetch", telemetry.CatCPU)
	defer sp.End(tl)
	bs := f.v.BlockSize()
	plug := f.v.getPlug()
	defer f.v.putPlug(plug)
	f.eachChunk(runs, func(c chunk) bool {
		if c.bytes == 0 {
			f.fc.InsertRange(tl, c.lo, c.lo+c.blocks, pagecache.InsertOptions{MarkerAt: -1})
		} else {
			plug.Add(blockdev.OpRead, c.devOff, c.bytes, c.lo)
		}
		return true
	})
	err = plug.FlushSync(tl, f.v.retryPolicy())
	f.v.rec.Add(telemetry.CtrVFSDemandRetries, int64(plug.Retries()))
	segs := plug.Segments()
	for i := 0; i < len(segs); {
		end, blocks := segGroup(segs, i, bs)
		if segs[i].Issued {
			f.bookDemand(tl, segs[i].UserLo, blocks, 0, 0)
		}
		i = end
	}
	if err != nil {
		f.v.rec.Add(telemetry.CtrVFSDemandIOErrors, 1)
		f.faultEvents(tl.Now(), segs, bs)
		sp.Annotate("io_error", 1)
	}
	return err
}

// prefetchRuns asynchronously reads missing runs: device time is reserved
// from `at` without blocking, and pages are inserted with their ready
// times. The tree-lock insertion cost is charged to tl (the readahead work
// happens in the calling context, as in Linux). markerAt places the
// PG_readahead marker; origin tags the inserted pages' provenance for
// the per-origin effectiveness partition, arm the predictor arm whose
// candidate drove the intent (ArmNone otherwise) for the per-arm
// partition. Returns pages issued and the first device error; a failed
// chunk inserts nothing (the poisoning guard) and aborts the remainder
// of the request, leaving the pages to demand reads.
//
// The walk accumulates every chunk in a plug, and one congestion-aware
// unplug dispatches the merged commands on the async lane. Each command is
// admitted against the backlog of the member it targets, plus this
// request's own advancing horizon there: a request piling commands onto
// one backend still trips the congestion limit (§4.7) even if the
// ledger's bounded span ring forgets old reservations, while a saturated
// backend never postpones commands bound for others. The prefetch mark
// lets a tiered stack promote remote extents these reads touch.
func (f *File) prefetchRuns(tl *simtime.Timeline, at simtime.Time, runs []bitmap.Run, markerAt int64, origin telemetry.Origin, arm telemetry.Arm) (issued int64, err error) {
	sp := telemetry.Begin(tl, "vfs.prefetch", telemetry.CatCPU)
	defer sp.End(tl)
	if len(runs) == 0 {
		return 0, nil
	}
	bs := f.v.BlockSize()
	plug := f.v.getPlug()
	defer f.v.putPlug(plug)
	plug.MarkPrefetch(true)
	f.eachChunk(runs, func(c chunk) bool {
		if c.bytes > 0 { // a hole has nothing to read ahead
			plug.Add(blockdev.OpRead, c.devOff, c.bytes, c.lo)
		}
		return true
	})
	plug.FlushAsync(at, f.v.cfg.CongestionLimit)
	segs := plug.Segments()
	congested := false
	for i := 0; i < len(segs); {
		end, blocks := segGroup(segs, i, bs)
		switch s := &segs[i]; {
		case s.Congested:
			congested = true
		case s.Err != nil:
			if err == nil {
				err = s.Err
			}
		case s.Issued:
			// The async read runs on the device's own schedule, so its
			// reserved interval is an explicit span child (the critical
			// path clamps it to whatever overlaps this request).
			sp.Child("dev.async_read", telemetry.CatDevice, at, s.Done).Annotate("bytes", blocks*bs)
			f.v.rec.Observe(telemetry.HistPrefetchLat, int64(s.Done.Sub(at)))
			issued += f.bookPrefetch(tl, s.UserLo, blocks, pagecache.InsertOptions{
				ReadyAt: s.Done, MarkerAt: markerAt, Origin: origin, Arm: arm})
		}
		i = end
	}
	if congested {
		sp.Annotate("congested", 1)
	}
	if err != nil {
		f.faultEvents(at, segs, bs)
		sp.Annotate("io_error", 1)
	}
	return issued, err
}
