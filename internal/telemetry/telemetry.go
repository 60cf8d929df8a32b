// Package telemetry is the cross-layer observability subsystem for the
// simulated stack: per-layer latency/size histograms charged in virtual
// time, a bounded structured trace of prefetch decisions, cross-layer
// counters, and a reconciliation audit (Audit) that asserts the layers'
// accounts of the same work agree.
//
// The paper's readahead_info call is itself a telemetry channel (§4.4):
// it exports per-file cache usage, hit/miss counters and the memory
// budget to userspace. This package generalizes that idea to the whole
// stack — blockdev, pagecache, vfs, and crosslib each report into one
// Recorder — and adds the Leap-style prefetch effectiveness accounting
// (prefetched pages later hit vs. evicted unused).
//
// The subsystem is strictly opt-in. Every Recorder method is safe on a
// nil receiver and returns immediately, so instrumented layers hold a
// plain *Recorder field that stays nil when telemetry is disabled: the
// hot paths pay one predictable nil check and allocate nothing.
package telemetry

import (
	"sync/atomic"

	"repro/internal/simtime"
)

// Counter identifies one cross-layer counter. The counters deliberately
// measure the same work from different layers' points of view — that
// redundancy is what Audit reconciles.
type Counter int

// Cross-layer counters.
const (
	// CtrLibIssuedPages is the pages CROSS-LIB asked readahead_info to
	// prefetch (per kernel crossing, before the kernel's limit clamp).
	CtrLibIssuedPages Counter = iota
	// CtrKernelRequestedPages is the pages readahead_info saw requested
	// after clamping to the file but before the prefetch-limit clamp.
	CtrKernelRequestedPages
	// CtrKernelAdmittedPages is the portion within the effective limit.
	CtrKernelAdmittedPages
	// CtrKernelRejectedPages is the portion the limit clamp cut off.
	CtrKernelRejectedPages
	// CtrKernelPrefetchedPages is the pages readahead_info actually
	// submitted I/O for (missing, not congestion-postponed).
	CtrKernelPrefetchedPages
	// CtrVFSPrefetchInsertedPages is the pages the VFS prefetch path
	// (readahead_info, kernel readahead, fault-around) newly inserted.
	CtrVFSPrefetchInsertedPages
	// CtrVFSPrefetchDevicePages is the pages of device reads the VFS
	// prefetch path issued (includes redundant re-reads of chunks whose
	// pages raced in).
	CtrVFSPrefetchDevicePages
	// CtrVFSDemandFetchPages is the pages of blocking demand device
	// reads (cache misses and read-modify-write edges).
	CtrVFSDemandFetchPages
	// CtrCacheInsertedPages is the pages newly inserted into the cache.
	CtrCacheInsertedPages
	// CtrCacheRemovedPages is the pages evicted or dropped.
	CtrCacheRemovedPages
	// CtrCachePrefetchInsertedPages is the inserted pages that came from
	// a prefetch (the effectiveness denominator).
	CtrCachePrefetchInsertedPages
	// CtrPrefetchHitPages is the prefetched pages a later lookup used.
	CtrPrefetchHitPages
	// CtrPrefetchWastedPages is the prefetched pages evicted unused.
	CtrPrefetchWastedPages
	// CtrDeviceReadBytes and CtrDeviceWriteBytes are raw device traffic.
	CtrDeviceReadBytes
	CtrDeviceWriteBytes
	// CtrCacheDirtyInsertedPages is the inserted pages that entered dirty
	// (buffered writes, writeback requeues). Clean insertions — the rest —
	// must be backed by successful device reads; Audit checks that, which
	// is the cache-poisoning guard.
	CtrCacheDirtyInsertedPages
	// CtrDeviceInjectedFaults counts requests failed by the fault injector.
	CtrDeviceInjectedFaults
	// CtrVFSDemandRetries counts blocking-read/fsync retries of transient
	// device faults.
	CtrVFSDemandRetries
	// CtrVFSDemandIOErrors counts demand I/O that failed for good (the
	// error the application sees).
	CtrVFSDemandIOErrors
	// CtrVFSWritebackRetries counts background writeback retries of
	// transient device faults.
	CtrVFSWritebackRetries
	// CtrWritebackLostPages counts dirty pages dropped after exhausting
	// the writeback retry budget (surfaced data loss, never silent).
	CtrWritebackLostPages
	// CtrLibPrefetchRetries counts CROSS-LIB background-prefetch retries
	// after transient faults (backoff + jitter path).
	CtrLibPrefetchRetries
	// CtrLibBreakerTrips and CtrLibBreakerRecoveries count per-file
	// circuit-breaker transitions (closed→open, open→closed).
	CtrLibBreakerTrips
	CtrLibBreakerRecoveries
	// CtrDevicePlugSegments counts requests submitted through the block
	// plug API (each VFS chunk is one segment), and
	// CtrDevicePlugCommands the device commands actually dispatched after
	// merging. A plug merges adjacent same-op segments, so commands <=
	// segments.
	CtrDevicePlugSegments
	CtrDevicePlugCommands
	// CtrDevicePlugMergedSegments counts segments absorbed into another
	// command by a front/back merge — exactly segments - commands.
	CtrDevicePlugMergedSegments
	// CtrDevicePlugSegmentBytes and CtrDevicePlugCommandBytes are the byte
	// totals seen segment-wise and command-wise. Merging must preserve
	// them exactly equal (a merged command carries the same bytes as its
	// parts) — the audit identity that keeps virtual-time accounting
	// reconcilable with plugging enabled.
	CtrDevicePlugSegmentBytes
	CtrDevicePlugCommandBytes
	// CtrRingSQESubmitted and CtrRingCQECompleted count submission-queue
	// entries accepted onto rings and completions delivered to reapers. At
	// quiescence (every ring drained) the two are exactly equal — the ring
	// audit identity: no submission is lost, no completion invented.
	CtrRingSQESubmitted
	CtrRingCQECompleted
	// CtrRingEnterCalls counts ring_enter crossings — one per submitted
	// batch, however many SQEs it carried. SQEs/enter is the crossing
	// amortization the rings exist to buy.
	CtrRingEnterCalls
	// CtrRingDispatchBatches counts fair-share lane dispatches that issued
	// at least one device command, and CtrRingDispatchCommands the merged
	// commands those dispatches issued (commands >= batches).
	CtrRingDispatchBatches
	CtrRingDispatchCommands
	// CtrRingBackpressure counts SQEs refused at admission (ring full).
	CtrRingBackpressure
	// CtrRingShedSQEs counts SQEs completed with ErrShed — work the ring
	// path refused (a deadline it could not meet) without touching the
	// device.
	CtrRingShedSQEs
	// CtrRingShedPrefetchPages is the pages those shed prefetch intents
	// carried (the device work the sheds saved).
	CtrRingShedPrefetchPages
	// CtrRingDeadlineMisses counts CQEs delivered with
	// ErrDeadlineExceeded — submissions that expired before or during
	// service.
	CtrRingDeadlineMisses
	// CtrBrownoutTransitions counted level changes of the brownout
	// controller, which is gone.
	//
	// Deprecated: always zero.
	CtrBrownoutTransitions
	// CtrCacheTenantReclaims counts tenant-targeted direct reclaim passes
	// (a hard-budget breach evicting only the offender's own pages).
	CtrCacheTenantReclaims
	// CtrPredArmPromotions counts bandit promotions of a challenger arm to
	// live on some inode (each also traced as OutcomeArmPromoted).
	CtrPredArmPromotions
	// CtrPredShadowIssuedPages is the pages the shadow arms would have
	// prefetched — booked into the per-(inode,arm) scorecard windows, never
	// into the cache. CtrPredShadowHitPages is the portion a later access
	// overlapped, CtrPredShadowExpiredPages the portion that aged out or was
	// overwritten unconsumed. hits + expired <= issued, the remainder is
	// still outstanding in the arms' candidate rings.
	CtrPredShadowIssuedPages
	CtrPredShadowHitPages
	CtrPredShadowExpiredPages
	// CtrDeviceCommands counts completed device commands (post-merge)
	// across the whole stack; with backends registered, the per-backend
	// command counters partition it exactly (the audit identity).
	CtrDeviceCommands
	// CtrTierPromotions counts extents promoted remote->local;
	// CtrTierPrefetchPromotions the subset landed by cross-tier prefetch
	// reads. Nothing demotes (DESIGN.md §16).
	CtrTierPromotions
	CtrTierPrefetchPromotions
	// CtrLibDroppedBehindPages is the pages CROSS-LIB's drop-behind freed
	// behind sole streams over files larger than the budget, each drop also
	// traced as OutcomeDroppedBehind; a part of the library's evicted pages.
	CtrLibDroppedBehindPages

	numCounters
)

// desc declares one metric: its export name (JSON key, Prometheus name
// fragment) and the HELP text of the Prometheus family it becomes.
type desc struct{ name, help string }

// counterDescs is the one declaration of what each counter is called and
// what it means, indexed by identifier. A new counter is its constant above
// plus its row here: String, Snapshot and WritePrometheus read the row, and
// TestHelpTablesComplete rejects a constant left without one.
var counterDescs = [numCounters]desc{
	CtrLibIssuedPages:             {"lib_issued_pages", "Pages CROSS-LIB asked readahead_info to prefetch, before the kernel limit clamp."},
	CtrKernelRequestedPages:       {"kernel_requested_pages", "Pages readahead_info saw requested after the file clamp, before the limit clamp."},
	CtrKernelAdmittedPages:        {"kernel_admitted_pages", "Requested pages within the effective kernel prefetch limit."},
	CtrKernelRejectedPages:        {"kernel_rejected_pages", "Requested pages cut off by the kernel prefetch limit."},
	CtrKernelPrefetchedPages:      {"kernel_prefetched_pages", "Pages readahead_info actually submitted prefetch I/O for."},
	CtrVFSPrefetchInsertedPages:   {"vfs_prefetch_inserted_pages", "Pages the VFS prefetch paths newly inserted into the page cache."},
	CtrVFSPrefetchDevicePages:     {"vfs_prefetch_device_pages", "Pages of device reads issued by the VFS prefetch paths."},
	CtrVFSDemandFetchPages:        {"vfs_demand_fetch_pages", "Pages of blocking demand device reads (misses and RMW edges)."},
	CtrCacheInsertedPages:         {"cache_inserted_pages", "Pages newly inserted into the page cache, all sources."},
	CtrCacheRemovedPages:          {"cache_removed_pages", "Pages evicted or dropped from the page cache."},
	CtrCachePrefetchInsertedPages: {"cache_prefetch_inserted_pages", "Inserted pages that came from a prefetch (effectiveness denominator)."},
	CtrPrefetchHitPages:           {"prefetch_hit_pages", "Prefetched pages a later lookup used (first use)."},
	CtrPrefetchWastedPages:        {"prefetch_wasted_pages", "Prefetched pages evicted before any use."},
	CtrDeviceReadBytes:            {"device_read_bytes", "Raw bytes read from the simulated device."},
	CtrDeviceWriteBytes:           {"device_write_bytes", "Raw bytes written to the simulated device."},
	CtrCacheDirtyInsertedPages:    {"cache_dirty_inserted_pages", "Inserted pages that entered dirty (buffered writes, writeback requeues)."},
	CtrDeviceInjectedFaults:       {"device_injected_faults", "Device requests failed by the fault injector."},
	CtrVFSDemandRetries:           {"vfs_demand_retries", "Blocking-read/fsync retries of transient device faults."},
	CtrVFSDemandIOErrors:          {"vfs_demand_io_errors", "Demand I/O failures surfaced to the application."},
	CtrVFSWritebackRetries:        {"vfs_writeback_retries", "Background writeback retries of transient device faults."},
	CtrWritebackLostPages:         {"writeback_lost_pages", "Dirty pages dropped after exhausting the writeback retry budget."},
	CtrLibPrefetchRetries:         {"lib_prefetch_retries", "CROSS-LIB background-prefetch retries after transient faults."},
	CtrLibBreakerTrips:            {"lib_breaker_trips", "Per-file circuit breaker transitions closed to open."},
	CtrLibBreakerRecoveries:       {"lib_breaker_recoveries", "Per-file circuit breaker transitions open to closed."},
	CtrDevicePlugSegments:         {"device_plug_segments", "Requests submitted through the block plug API."},
	CtrDevicePlugCommands:         {"device_plug_commands", "Device commands dispatched after plug merging."},
	CtrDevicePlugMergedSegments:   {"device_plug_merged_segments", "Segments absorbed into another command by a front/back merge."},
	CtrDevicePlugSegmentBytes:     {"device_plug_segment_bytes", "Byte total of plug-submitted segments."},
	CtrDevicePlugCommandBytes:     {"device_plug_command_bytes", "Byte total of dispatched commands (merge-invariant: equals segment bytes)."},
	CtrRingSQESubmitted:           {"ring_sqes_submitted", "Submission-queue entries accepted onto rings."},
	CtrRingCQECompleted:           {"ring_cqes_completed", "Completions delivered to ring reapers."},
	CtrRingEnterCalls:             {"ring_enter_calls", "ring_enter crossings (one per submitted batch)."},
	CtrRingDispatchBatches:        {"ring_dispatch_batches", "Fair-share lane dispatches that issued at least one device command."},
	CtrRingDispatchCommands:       {"ring_dispatch_commands", "Merged device commands issued by lane dispatches."},
	CtrRingBackpressure:           {"ring_backpressure", "SQEs refused at ring admission (ring full)."},
	CtrRingShedSQEs:               {"ring_shed_sqes", "SQEs completed with ErrShed under overload, never touching the device."},
	CtrRingShedPrefetchPages:      {"ring_shed_prefetch_pages", "Pages carried by shed prefetch intents (device work the sheds saved)."},
	CtrRingDeadlineMisses:         {"ring_deadline_misses", "CQEs delivered with ErrDeadlineExceeded."},
	CtrBrownoutTransitions:        {"brownout_transitions", "Deprecated: always zero (the brownout controller is gone)."},
	CtrCacheTenantReclaims:        {"cache_tenant_reclaims", "Tenant-targeted direct reclaim passes on hard-budget breaches."},
	CtrPredArmPromotions:          {"pred_arm_promotions", "Bandit promotions of a challenger predictor arm to live."},
	CtrPredShadowIssuedPages:      {"pred_shadow_issued_pages", "Pages the shadow predictor arms would have prefetched."},
	CtrPredShadowHitPages:         {"pred_shadow_hit_pages", "Shadow-predicted pages a later access overlapped."},
	CtrPredShadowExpiredPages:     {"pred_shadow_expired_pages", "Shadow-predicted pages that aged out or were overwritten unconsumed."},
	CtrDeviceCommands:             {"device_commands", "Completed device commands after plug merging, all stack members (per-backend partition parent)."},
	CtrTierPromotions:             {"tier_promotions", "Extents promoted from the remote tier to local storage."},
	CtrTierPrefetchPromotions:     {"tier_prefetch_promotions", "Tier promotions driven by cross-tier prefetch landing remote pages locally."},
	CtrLibDroppedBehindPages:      {"lib_dropped_behind_pages", "Pages CROSS-LIB dropped behind sole streams over files larger than its budget (part of its evictions)."},
}

// String names the counter (JSON key).
func (c Counter) String() string { return counterDescs[c].name }

// Outcome classifies one prefetch-decision trace event.
type Outcome int

// Prefetch decision outcomes.
const (
	// OutcomeIssued: the intent reached the kernel as readahead work.
	OutcomeIssued Outcome = iota
	// OutcomeSavedByBitmap: the user-level bitmap showed the range
	// cached or in flight, so the kernel crossing was elided (§4.2).
	OutcomeSavedByBitmap
	// OutcomeDroppedLowMemory: free memory below the low watermark.
	OutcomeDroppedLowMemory
	// OutcomeThrottledBatching: the uncovered tail was too small to be
	// worth a crossing yet (hysteresis); the intent waits to accumulate.
	OutcomeThrottledBatching
	// OutcomeThrottledSteadyState: the saturated predictor skipped the
	// observation and produced no window.
	OutcomeThrottledSteadyState
	// OutcomeDroppedQueueFull: every helper thread was booked past the
	// useful horizon; the intent was dropped.
	OutcomeDroppedQueueFull
	// OutcomeEvictedBeforeUse: prefetched pages were reclaimed before
	// any reader touched them (wasted prefetch, the Leap metric).
	OutcomeEvictedBeforeUse
	// OutcomeDeviceFault: a prefetch device request failed (injected or
	// real); the affected pages were NOT inserted into the cache.
	OutcomeDeviceFault
	// OutcomeRetriedTransient: a transient prefetch fault was retried
	// after virtual-time backoff.
	OutcomeRetriedTransient
	// OutcomeDroppedBreakerOpen: the per-file circuit breaker was open, so
	// the prefetch intent was dropped (degraded to demand reads).
	OutcomeDroppedBreakerOpen
	// OutcomeBreakerTripped: repeated prefetch failures opened the
	// per-file breaker.
	OutcomeBreakerTripped
	// OutcomeBreakerRecovered: a half-open probe succeeded and the breaker
	// closed again.
	OutcomeBreakerRecovered
	// OutcomeBatchedIntent: a small prefetch intent was parked in the
	// per-file aggregator (dedupe/merge against the shared bitmap) to be
	// flushed later as part of one vectored readahead_info crossing.
	OutcomeBatchedIntent
	// OutcomeShedPrefetch: the kernel shed a ring prefetch intent whose
	// deadline had passed when the crossing reached it; the pages were
	// never issued and the CQE carries ErrShed.
	OutcomeShedPrefetch
	// OutcomeLatePrefetch: a demand read consumed prefetched pages whose
	// backing I/O was still in flight — the prefetch was issued too late
	// to fully hide the device, so the reader blocked on readyAt. One
	// event per contiguous run of late pages within a lookup.
	OutcomeLatePrefetch
	// OutcomeArmPromoted: the per-file bandit promoted a challenger
	// predictor arm to live. Lo/Hi encode the old and new arm index so the
	// trace shows the whole promotion trajectory per inode.
	OutcomeArmPromoted
	// OutcomeDroppedBehind: CROSS-LIB gave back one unit of a sole stream's
	// wake. Lo/Hi bound the unit; Pages is what the drop freed, which
	// pages the kernel spared (active) or had already evicted do not count.
	OutcomeDroppedBehind

	numOutcomes
)

// outcomeNames is the export name table, indexed by identifier. Outcomes,
// origins and arms are label values of shared Prometheus families, so a row
// is a name and the family's HELP sits with the writer.
var outcomeNames = [numOutcomes]string{
	OutcomeIssued:               "issued",
	OutcomeSavedByBitmap:        "saved-by-bitmap",
	OutcomeDroppedLowMemory:     "dropped-low-memory",
	OutcomeThrottledBatching:    "throttled-batching",
	OutcomeThrottledSteadyState: "throttled-steady-state",
	OutcomeDroppedQueueFull:     "dropped-queue-full",
	OutcomeEvictedBeforeUse:     "evicted-before-use",
	OutcomeDeviceFault:          "device-fault",
	OutcomeRetriedTransient:     "retried-transient",
	OutcomeDroppedBreakerOpen:   "dropped-breaker-open",
	OutcomeBreakerTripped:       "breaker-tripped",
	OutcomeBreakerRecovered:     "breaker-recovered",
	OutcomeBatchedIntent:        "batched-intent",
	OutcomeShedPrefetch:         "shed-prefetch",
	OutcomeLatePrefetch:         "late-prefetch",
	OutcomeArmPromoted:          "arm-promoted",
	OutcomeDroppedBehind:        "dropped-behind",
}

// String names the outcome (JSON key, label value).
func (o Outcome) String() string { return outcomeNames[o] }

// Origin tags where a cache insertion came from — the provenance lattice
// of the prefetch-effectiveness scorecards. Every inserted page carries
// exactly one origin; first use consumes the page's prefetch credit into
// the origin's used column, eviction of an unconsumed page books waste.
// OriginDemand covers everything that is not a prefetch (demand fetches,
// zero-fill, buffered writes, writeback requeues): it never accrues
// used/wasted credit, and it completes the partition — summed over all
// origins, inserted equals the global cache-inserted counter exactly.
type Origin int

// Page-insertion origins.
const (
	// OriginDemand: demand fetch, zero-fill, dirty write, or writeback
	// requeue — not a prefetch; carries no effectiveness credit.
	OriginDemand Origin = iota
	// OriginReadahead: the kernel readahead state machine (ReadAt window
	// ramp, mmap fault-around, readahead(2)/fadvise WILLNEED).
	OriginReadahead
	// OriginCoverage: CROSS-LIB's budget-driven coverage policy (§4.6)
	// populating a chunk around a random access.
	OriginCoverage
	// OriginCrossOS: readahead_info prefetch issued by CROSS-LIB's
	// predictor, fetch-all, or vectored intent flush.
	OriginCrossOS
	// OriginRing: prefetch SQEs completed through the submission rings.
	OriginRing

	// NumOrigins bounds per-origin tables (exported for reconciliation
	// tests and the scorecard).
	NumOrigins
)

// numOrigins is the internal alias used for array bounds.
const numOrigins = int(NumOrigins)

// originNames is the export name table, indexed by identifier.
var originNames = [numOrigins]string{
	OriginDemand:    "demand",
	OriginReadahead: "readahead",
	OriginCoverage:  "coverage",
	OriginCrossOS:   "crossos",
	OriginRing:      "ring-prefetch",
}

// String names the origin (JSON key, label value).
func (o Origin) String() string { return originNames[o] }

// IsPrefetch reports whether the origin is a prefetch source (everything
// but demand).
func (o Origin) IsPrefetch() bool { return o != OriginDemand }

// Arm identifies one predictor arm of the competing-predictor ensemble.
// It is a second provenance axis orthogonal to Origin: every
// prefetch-credit page additionally carries the arm whose candidate
// issued it (ArmNone for prefetches no arm drove — kernel readahead,
// coverage, fetch-all, explicit ring prefetch), so summed over all arms
// the per-arm inserted/used/wasted cells partition the prefetch-origin
// ledger exactly. The registered arm names below are the single source
// of truth TestArmGateExport and TestArmGatePredictors check the export
// table and the /predictors endpoint against.
type Arm int

// Registered predictor arms.
const (
	// ArmNone tags prefetch-credit pages not issued by any ensemble arm.
	ArmNone Arm = iota
	// ArmCounter is the paper's 3-bit sequentiality counter (§4.6).
	ArmCounter
	// ArmMithril is the MITHRIL-style sporadic-association miner.
	ArmMithril

	// NumArms bounds per-arm tables (exported for the ensemble, the
	// scorecard, and the conformance tests).
	NumArms
)

// numArms is the internal alias used for array bounds.
const numArms = int(NumArms)

// armNames is the export name table, indexed by identifier.
var armNames = [numArms]string{
	ArmNone:    "none",
	ArmCounter: "counter",
	ArmMithril: "mithril",
}

// String names the arm (JSON key, label value).
func (a Arm) String() string { return armNames[a] }

// Hist identifies one built-in histogram.
type Hist int

// Built-in latency/size histograms.
const (
	// HistDevReadLat / HistDevWriteLat: submit-to-complete device times
	// (queueing + command + transfer + latency), in virtual nanoseconds.
	HistDevReadLat Hist = iota
	HistDevWriteLat
	// HistDevReadBytes / HistDevWriteBytes: per-request sizes in bytes.
	HistDevReadBytes
	HistDevWriteBytes
	// HistPrefetchLat: prefetch issue-to-complete time per device chunk.
	HistPrefetchLat
	// HistRingBatchCmds: device commands issued per fair-share lane
	// dispatch — the achieved queue depth distribution.
	HistRingBatchCmds
	// HistRingQueueWait: virtual time an SQE's device work sat staged in a
	// tenant lane before its dispatch was submitted.
	HistRingQueueWait
	// HistPrefetchToUse: virtual time from a prefetched page's insertion
	// to its first use by a reader — the timeliness distribution. A small
	// value means the reader arrived almost immediately (the prefetch
	// barely ran ahead); large values flag pages that sat resident long
	// enough to risk eviction before use.
	HistPrefetchToUse

	numHists
)

// histDescs declares the built-in histograms (see counterDescs).
var histDescs = [numHists]desc{
	HistDevReadLat:    {"dev_read_lat_ns", "Device read submit-to-complete time, virtual nanoseconds (log2 buckets)."},
	HistDevWriteLat:   {"dev_write_lat_ns", "Device write submit-to-complete time, virtual nanoseconds (log2 buckets)."},
	HistDevReadBytes:  {"dev_read_bytes", "Device read request sizes in bytes (log2 buckets)."},
	HistDevWriteBytes: {"dev_write_bytes", "Device write request sizes in bytes (log2 buckets)."},
	HistPrefetchLat:   {"prefetch_lat_ns", "Prefetch issue-to-complete time per device chunk, virtual nanoseconds."},
	HistRingBatchCmds: {"ring_batch_commands", "Device commands per fair-share lane dispatch (achieved queue depth)."},
	HistRingQueueWait: {"ring_queue_wait_ns", "Virtual time an SQE's device work waited staged in its tenant lane."},
	HistPrefetchToUse: {"prefetch_to_use_ns", "Prefetched page insertion-to-first-use virtual time (timeliness)."},
}

// String names the histogram (JSON key).
func (h Hist) String() string { return histDescs[h].name }

// MaxSyscallKinds bounds the per-syscall latency histogram table.
const MaxSyscallKinds = 16

// MaxBackends bounds the per-backend (stack member device) table.
const MaxBackends = 8

// backendCell is one backend device's command/byte/latency family. The
// blockdev layer books every completed request of a registered stack
// member here, alongside the global device counters — the audit asserts
// the per-backend sums partition the stack totals exactly.
type backendCell struct {
	commands   atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	queueWait  Histogram
	service    Histogram
}

// outcomeCell accumulates per-outcome totals independently of the ring,
// so counts stay exact even after the trace wraps.
type outcomeCell struct {
	events atomic.Int64
	pages  atomic.Int64
}

// originCell is one origin's page-provenance ledger. inserted counts
// every page inserted under the origin; used and wasted partition the
// consumed prefetch credit (first read vs evicted unused). The cells
// deliberately re-measure the global prefetch counters per origin —
// Audit asserts the partition sums to them exactly.
type originCell struct {
	inserted atomic.Int64
	used     atomic.Int64
	wasted   atomic.Int64
}

func (c *originCell) stat() OriginStat {
	return OriginStat{Inserted: c.inserted.Load(), Used: c.used.Load(), Wasted: c.wasted.Load()}
}

// Recorder is the shared sink all layers report into. The zero value is
// not used directly; construct with NewRecorder. All methods are safe on
// a nil *Recorder and do nothing, which is the disabled fast path.
type Recorder struct {
	counters [numCounters]atomic.Int64
	outcomes [numOutcomes]outcomeCell
	origins  [numOrigins]originCell
	arms     [numArms]originCell
	hists    [numHists]Histogram

	syscallNames [MaxSyscallKinds]string
	syscalls     [MaxSyscallKinds]Histogram

	backendNames [MaxBackends]string
	backends     [MaxBackends]backendCell

	ring ring
}

// DefaultEventCap is the default decision-trace ring size.
const DefaultEventCap = 4096

// NewRecorder returns a recorder whose decision trace keeps the most
// recent eventCap events (<=0 selects DefaultEventCap).
func NewRecorder(eventCap int) *Recorder {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	r := &Recorder{}
	r.ring.init(eventCap)
	return r
}

// Add increments a cross-layer counter.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.counters[c].Add(n)
}

// CounterValue reads one counter.
func (r *Recorder) CounterValue(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// OriginInserted books n pages inserted under an origin.
func (r *Recorder) OriginInserted(o Origin, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.origins[o].inserted.Add(n)
}

// OriginUsed books n prefetched pages of an origin consumed by a reader.
func (r *Recorder) OriginUsed(o Origin, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.origins[o].used.Add(n)
}

// OriginWasted books n prefetched pages of an origin evicted unused.
func (r *Recorder) OriginWasted(o Origin, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.origins[o].wasted.Add(n)
}

// OriginTotals reports one origin's exact ledger.
func (r *Recorder) OriginTotals(o Origin) (inserted, used, wasted int64) {
	if r == nil {
		return 0, 0, 0
	}
	c := &r.origins[o]
	return c.inserted.Load(), c.used.Load(), c.wasted.Load()
}

// ArmInserted books n prefetch-credit pages inserted under an arm tag
// (ArmNone for prefetches no ensemble arm drove). The pagecache calls
// this alongside OriginInserted for every prefetch-origin insertion, so
// the arm axis partitions the prefetch-origin ledger exactly.
func (r *Recorder) ArmInserted(a Arm, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.arms[a].inserted.Add(n)
}

// ArmUsed books n prefetched pages of an arm consumed by a reader.
func (r *Recorder) ArmUsed(a Arm, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.arms[a].used.Add(n)
}

// ArmWasted books n prefetched pages of an arm evicted unused.
func (r *Recorder) ArmWasted(a Arm, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.arms[a].wasted.Add(n)
}

// Observe records one sample into a built-in histogram.
func (r *Recorder) Observe(h Hist, v int64) {
	if r == nil {
		return
	}
	r.hists[h].Observe(v)
}

// RegisterSyscall names a per-syscall latency slot (the vfs layer calls
// this once per syscall kind; telemetry cannot import vfs).
func (r *Recorder) RegisterSyscall(i int, name string) {
	if r == nil || i < 0 || i >= MaxSyscallKinds {
		return
	}
	r.syscallNames[i] = name
}

// ObserveSyscall records one syscall latency sample (virtual ns).
func (r *Recorder) ObserveSyscall(i int, ns int64) {
	if r == nil || i < 0 || i >= MaxSyscallKinds {
		return
	}
	r.syscalls[i].Observe(ns)
}

// RegisterBackend names a per-backend device slot (the blockdev stack
// calls this once per member; telemetry cannot import blockdev).
func (r *Recorder) RegisterBackend(i int, name string) {
	if r == nil || i < 0 || i >= MaxBackends {
		return
	}
	r.backendNames[i] = name
}

// ObserveBackend books one completed device command of backend i: its
// bytes (by direction) and its queue-wait and service intervals
// (virtual ns).
func (r *Recorder) ObserveBackend(i int, write bool, bytes, waitNs, serviceNs int64) {
	if r == nil || i < 0 || i >= MaxBackends {
		return
	}
	b := &r.backends[i]
	b.commands.Add(1)
	if write {
		b.writeBytes.Add(bytes)
	} else {
		b.readBytes.Add(bytes)
	}
	b.queueWait.Observe(waitNs)
	b.service.Observe(serviceNs)
}

// Event records one prefetch-decision trace event for pages [lo, hi) of
// inode ino. The per-outcome totals always advance; the ring keeps the
// most recent events for inspection.
func (r *Recorder) Event(at simtime.Time, o Outcome, ino, lo, hi int64) {
	r.EventPages(at, o, ino, lo, hi, max(hi-lo, 0))
}

// EventPages is Event for an outcome whose pages are not the whole range:
// the event carries [lo, hi) and counts pages.
func (r *Recorder) EventPages(at simtime.Time, o Outcome, ino, lo, hi, pages int64) {
	if r == nil {
		return
	}
	r.outcomes[o].events.Add(1)
	r.outcomes[o].pages.Add(pages)
	r.ring.record(Event{At: at, Outcome: o, Ino: ino, Lo: lo, Hi: hi, Pages: pages})
}

// OutcomeTotals reports the exact event and page totals for one outcome.
func (r *Recorder) OutcomeTotals(o Outcome) (events, pages int64) {
	if r == nil {
		return 0, 0
	}
	return r.outcomes[o].events.Load(), r.outcomes[o].pages.Load()
}
