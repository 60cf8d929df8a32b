package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/simtime"
)

// Request-scoped span tracing. A Tracer opens one root span per sampled
// top-level operation (library read/write, open-time optimistic prefetch,
// background prefetch job, mmap load, fsync, an application's
// readahead/fadvise hint) and the layers below attach
// child spans as the request moves through the VFS, the page cache, and
// the block device — all timestamped in virtual time. Completed roots
// land in a bounded flight recorder that keeps the slowest N per
// operation class, from which Chrome-trace JSON (Perfetto) and
// critical-path reports are produced.
//
// The span context rides on the request's simtime.Timeline (the one
// object already threaded through every layer), so propagation needs no
// signature changes: Begin reads the current span off the timeline,
// pushes a child, and End pops it. Every entry point is nil-safe; with
// tracing disabled (or the operation unsampled) the hot paths pay one
// nil check and allocate nothing — the same contract as the nil
// *Recorder.

// Op classifies a root span (one top-level operation class).
type Op int

// Root operation classes.
const (
	OpRead Op = iota
	OpWrite
	OpFsync
	OpOpenPrefetch
	OpBgPrefetch
	OpMmapLoad
	OpMmapScan
	OpRingEnter
	OpHint

	numOps
)

// String names the op class (export key).
func (o Op) String() string {
	return [...]string{
		"read",
		"write",
		"fsync",
		"open_prefetch",
		"bg_prefetch",
		"mmap_load",
		"mmap_scan",
		"ring_enter",
		"hint",
	}[o]
}

// Category attributes virtual time to a cause; the critical-path report
// of a root span decomposes its duration into these buckets.
type Category int

// Time-attribution categories.
const (
	// CatCPU is span-local time not claimed by any child (compute,
	// syscall crossings, bookkeeping).
	CatCPU Category = iota
	// CatDevice is device service time (command + transfer + latency).
	CatDevice
	// CatQueue is time queued behind other requests for a device lane.
	CatQueue
	// CatStall is injected latency (fault-injection brownouts).
	CatStall
	// CatRetry is virtual-time backoff between fault retries.
	CatRetry
	// CatLock is page-cache tree/bitmap/mmap lock charges (wait + hold).
	CatLock
	// CatCopy is page-copy time to or from user space.
	CatCopy
	// CatInflight is time spent waiting on in-flight prefetch I/O.
	CatInflight

	numCategories
)

// String names the category (export key).
func (c Category) String() string {
	return [...]string{
		"cpu",
		"device",
		"queue",
		"stall",
		"retry",
		"lock",
		"copy",
		"inflight",
	}[c]
}

// PageKind classifies page totals accumulated on sampled spans, which the
// audit reconciles against the flat cross-layer counters.
type PageKind int

// Page-total kinds.
const (
	// PageDemand counts pages of blocking demand device reads observed
	// under a sampled root (the span-side twin of CtrVFSDemandFetchPages).
	PageDemand PageKind = iota
	// PagePrefetch counts pages of prefetch device reads observed under a
	// sampled root (twin of CtrVFSPrefetchDevicePages).
	PagePrefetch

	numPageKinds
)

// Attr is one span annotation.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// Span is one timed interval of a sampled request. All methods are safe
// on a nil *Span and do nothing — the disabled/unsampled fast path.
// A span tree belongs to a single simulated thread; no locking.
type Span struct {
	tr     *Tracer
	parent *Span
	root   *Span

	name     string
	cat      Category
	start    simtime.Time
	end      simtime.Time
	attrs    []Attr
	children []*Span

	// Root-only fields.
	op      Op
	ino     int64
	seq     int64
	nspans  int   // spans in this tree, including the root
	dropped int64 // children dropped by the per-root span cap
	pages   [numPageKinds]int64
}

// Name reports the span's name.
func (s *Span) Name() string { return s.name }

// Cat reports the span's time-attribution category.
func (s *Span) Cat() Category { return s.cat }

// StartTime and EndTime report the span's virtual-time bounds.
func (s *Span) StartTime() simtime.Time { return s.start }
func (s *Span) EndTime() simtime.Time   { return s.end }

// Duration reports the span's virtual duration.
func (s *Span) Duration() simtime.Duration { return s.end.Sub(s.start) }

// Children reports the span's direct children.
func (s *Span) Children() []*Span { return s.children }

// Attrs reports the span's annotations.
func (s *Span) Attrs() []Attr { return s.attrs }

// Op reports the root's operation class (root spans only).
func (s *Span) Op() Op { return s.op }

// Ino reports the inode the root operation targeted.
func (s *Span) Ino() int64 { return s.ino }

// Seq reports the root's tracer-wide sample sequence number.
func (s *Span) Seq() int64 { return s.seq }

// DroppedSpans reports children discarded by the per-root span cap.
func (s *Span) DroppedSpans() int64 { return s.dropped }

// Pages reports the root's accumulated page total for one kind.
func (s *Span) Pages(k PageKind) int64 {
	if s == nil {
		return 0
	}
	return s.root.pages[k]
}

// Annotate attaches an integer attribute to the span. Nil-safe.
func (s *Span) Annotate(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
}

// CountPages adds n pages of kind k to the root's totals and to the
// tracer's reconciliation totals (see Audit). Nil-safe.
func (s *Span) CountPages(k PageKind, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.root.pages[k] += n
	s.root.tr.pages[k].Add(n)
}

// CountPages adds n pages of kind k to the timeline's active root, if
// any. Call sites must use this (or an explicitly Current span) rather
// than a Begin-returned child: Begin returns nil once the root hits
// MaxSpansPerRoot, and page totals are reconciliation aggregates (the
// audit checks them against the flat counters under full sampling) —
// they must survive span-tree truncation. Nil-safe.
func CountPages(tl *simtime.Timeline, k PageKind, n int64) {
	Current(tl).CountPages(k, n)
}

// newChild allocates a child span under s, honoring the per-root cap.
func (s *Span) newChild(name string, cat Category, start simtime.Time) *Span {
	root := s.root
	if root.nspans >= root.tr.cfg.MaxSpansPerRoot {
		root.dropped++
		root.tr.droppedSpans.Add(1)
		return nil
	}
	root.nspans++
	c := &Span{tr: s.tr, parent: s, root: root, name: name, cat: cat, start: start}
	s.children = append(s.children, c)
	return c
}

// Child records an already-completed interval [start, end) under s —
// used for spans whose bounds are known at call time (ledger charges,
// async device reservations) rather than bracketing code. It does not
// become the current span. Nil-safe; returns the child for annotation.
func (s *Span) Child(name string, cat Category, start, end simtime.Time) *Span {
	if s == nil {
		return nil
	}
	c := s.newChild(name, cat, start)
	if c != nil {
		c.end = end
	}
	return c
}

// Current reports the timeline's active span, nil when tracing is off or
// the operation is unsampled. Safe on a nil timeline.
func Current(tl *simtime.Timeline) *Span {
	v := tl.Trace()
	if v == nil {
		return nil
	}
	s, _ := v.(*Span)
	return s
}

// Begin opens a child of the timeline's current span starting now and
// makes it current, so spans opened deeper in the stack nest under it.
// Returns nil — for free — when no span is active. Pair with End.
func Begin(tl *simtime.Timeline, name string, cat Category) *Span {
	s := Current(tl)
	if s == nil {
		return nil
	}
	c := s.newChild(name, cat, tl.Now())
	if c != nil {
		tl.SetTrace(c)
	}
	return c
}

// End closes a Begin-opened span at the timeline's current time and
// restores its parent as the current span. Nil-safe.
func (s *Span) End(tl *simtime.Timeline) {
	if s == nil {
		return
	}
	s.end = tl.Now()
	tl.SetTrace(s.parent)
}

// TraceConfig tunes a Tracer. The zero value samples every operation.
type TraceConfig struct {
	// SampleEvery enables head-based 1-in-N sampling (<=1 samples every
	// root operation).
	SampleEvery int64
	// PerInode switches the sampling key from the operation sequence
	// number to hash(Seed, inode): all operations of 1-in-SampleEvery
	// inodes are sampled. Deterministic regardless of thread interleaving
	// (sequence-based sampling is deterministic only for single-threaded
	// workloads).
	PerInode bool
	// Seed seeds the per-inode sampling hash.
	Seed int64
	// KeepPerOp bounds the flight recorder: the slowest KeepPerOp roots
	// are retained per operation class (default 8).
	KeepPerOp int
	// MaxSpansPerRoot caps one root's span tree; further children are
	// counted as dropped, never silently lost (default 512).
	MaxSpansPerRoot int
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	if c.KeepPerOp <= 0 {
		c.KeepPerOp = 8
	}
	if c.MaxSpansPerRoot <= 0 {
		c.MaxSpansPerRoot = 512
	}
	return c
}

// Tracer samples root operations and retains the slowest completed roots
// per operation class. All methods are safe on a nil *Tracer.
type Tracer struct {
	cfg TraceConfig

	opSeq        atomic.Int64 // root operations seen (sampling key)
	sampled      atomic.Int64 // root spans opened
	skipped      atomic.Int64 // root operations not sampled
	droppedSpans atomic.Int64 // children dropped by the per-root cap
	droppedRoots atomic.Int64 // completed roots not retained
	pages        [numPageKinds]atomic.Int64

	mu   sync.Mutex
	kept [numOps][]*Span // ascending by duration, ties by seq
}

// NewTracer returns a tracer with the given configuration.
func NewTracer(cfg TraceConfig) *Tracer {
	return &Tracer{cfg: cfg.withDefaults()}
}

// Config reports the tracer configuration (defaults applied).
func (t *Tracer) Config() TraceConfig {
	if t == nil {
		return TraceConfig{}
	}
	return t.cfg
}

// sample decides head-based sampling for one root operation.
func (t *Tracer) sample(ino int64) bool {
	n := t.cfg.SampleEvery
	if n <= 1 {
		return true
	}
	if t.cfg.PerInode {
		return traceHash(uint64(t.cfg.Seed), uint64(ino))%uint64(n) == 0
	}
	return (t.opSeq.Add(1)-1)%n == 0
}

// Root opens a root span for a sampled top-level operation on ino,
// starting at the timeline's current time, and makes it the timeline's
// current span. It returns nil — with no allocation — when the tracer is
// nil, the operation is unsampled, or a span is already active on the
// timeline (the operation is nested inside a traced one and its work
// attaches there). Pair with Finish.
func (t *Tracer) Root(tl *simtime.Timeline, op Op, ino int64) *Span {
	if t == nil || tl == nil || tl.Trace() != nil {
		return nil
	}
	if !t.sample(ino) {
		t.skipped.Add(1)
		return nil
	}
	s := &Span{tr: t, op: op, ino: ino, name: "lib." + op.String(),
		start: tl.Now(), seq: t.sampled.Add(1), nspans: 1}
	s.root = s
	tl.SetTrace(s)
	return s
}

// Finish closes a root span at the timeline's current time, clears the
// timeline's span context, and commits the root to the flight recorder.
// Nil-safe.
func (s *Span) Finish(tl *simtime.Timeline) {
	if s == nil {
		return
	}
	s.end = tl.Now()
	tl.SetTrace(nil)
	s.tr.commit(s)
}

// commit retains root in the per-op slowest-N list, or counts it dropped.
func (t *Tracer) commit(root *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.kept[root.op]
	i := sort.Search(len(list), func(i int) bool {
		d, rd := list[i].Duration(), root.Duration()
		if d != rd {
			return d > rd
		}
		return list[i].seq > root.seq
	})
	if len(list) < t.cfg.KeepPerOp {
		list = append(list, nil)
		copy(list[i+1:], list[i:])
		list[i] = root
		t.kept[root.op] = list
		return
	}
	if i == 0 {
		t.droppedRoots.Add(1) // faster than everything retained
		return
	}
	// Evict the fastest retained root to make room.
	t.droppedRoots.Add(1)
	copy(list[:i-1], list[1:i])
	list[i-1] = root
}

// Roots returns the retained roots in deterministic order: by op class,
// then slowest first, ties broken by sample sequence.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Span
	for op := Op(0); op < numOps; op++ {
		list := t.kept[op]
		for i := len(list) - 1; i >= 0; i-- {
			out = append(out, list[i])
		}
	}
	return out
}

// TraceStats is the tracer's exportable accounting: how much was
// sampled, and how much of what was sampled survived the bounded flight
// recorder — so a truncated trace is never mistaken for a complete one.
type TraceStats struct {
	// SampledRoots and SkippedRoots partition the root operations seen.
	SampledRoots int64 `json:"sampled_roots"`
	SkippedRoots int64 `json:"skipped_roots"`
	// KeptRoots is what the flight recorder currently retains;
	// DroppedRoots counts completed sampled roots it let go.
	KeptRoots    int64 `json:"kept_roots"`
	DroppedRoots int64 `json:"dropped_roots"`
	// DroppedSpans counts child spans cut by the per-root cap.
	DroppedSpans int64 `json:"dropped_spans"`
	// SampleEvery and PerInode echo the sampling configuration so
	// downstream consumers can scale span totals back up.
	SampleEvery int64 `json:"sample_every"`
	PerInode    bool  `json:"per_inode"`
	// DemandPages and PrefetchPages are the page totals accumulated on
	// sampled spans (the audit reconciles them against the counters).
	DemandPages   int64 `json:"demand_pages"`
	PrefetchPages int64 `json:"prefetch_pages"`
}

// Stats snapshots the tracer accounting. Returns nil on a nil tracer.
func (t *Tracer) Stats() *TraceStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var kept int64
	for op := Op(0); op < numOps; op++ {
		kept += int64(len(t.kept[op]))
	}
	t.mu.Unlock()
	return &TraceStats{
		SampledRoots:  t.sampled.Load(),
		SkippedRoots:  t.skipped.Load(),
		KeptRoots:     kept,
		DroppedRoots:  t.droppedRoots.Load(),
		DroppedSpans:  t.droppedSpans.Load(),
		SampleEvery:   t.cfg.SampleEvery,
		PerInode:      t.cfg.PerInode,
		DemandPages:   t.pages[PageDemand].Load(),
		PrefetchPages: t.pages[PagePrefetch].Load(),
	}
}

// traceHash is an FNV-1a fold over the values (sampling key hash).
func traceHash(vals ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}
