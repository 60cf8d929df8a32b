package crosslib

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/predictor"
	"repro/internal/rangetree"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Runtime is one process's CROSS-LIB instance. It is safe for concurrent
// use by raw goroutines (the stress tests, the admin server's reads);
// inside a System a simtime.Group runs one member at a time, so the
// library's shared state is under one lock.
type Runtime struct {
	v   *vfs.VFS
	opt Options

	workers *simtime.WorkerPool

	// mu guards the inode table, every sharedFile's fields but its tree,
	// every File's predictor, position and drop-behind watermark, every
	// Mapping's scan state, and the fields below. No section spans a helper
	// job or a Ring method — jobs run inline on the submitting thread — and
	// the only locks taken under it are the range tree's and the kernel's.
	mu    sync.Mutex
	files map[int64]*sharedFile

	ops int64 // intercepted operations, for eviction throttling
	// evictEpoch is ops / EvictCheckOps as of the last budget poll: a poll is
	// due whenever an op's tick has moved past it (maybeEvict).
	evictEpoch int64

	// Scratch of evictPass, reused pass after pass.
	evictFiles  []*sharedFile
	evictRanges []rangetree.ColdRange

	// rec, when non-nil, receives the prefetch decision trace and the
	// library-side accounting counters (telemetry opt-in).
	rec *telemetry.Recorder

	// tr, when non-nil, opens request-scoped root spans on the library's
	// top-level operations; the layers below pick the span context up from
	// the timeline (tracing opt-in).
	tr *telemetry.Tracer

	// score, when non-nil, receives the per-(inode,arm) shadow-mode
	// effectiveness bookings of the predictor ensemble (scorecard opt-in).
	score *telemetry.Scorecard

	// Stats, atomics so that Stats reads them without the lock.
	prefetchCalls    atomic.Int64 // readahead_info calls issued
	savedPrefetch    atomic.Int64 // prefetches skipped via cache awareness
	prefetchedPgs    atomic.Int64
	evictedPgs       atomic.Int64
	fincorePolls     atomic.Int64
	openPrefetches   atomic.Int64
	droppedPrefetch  atomic.Int64
	droppedLowMemory atomic.Int64 // intents the budget gate halted
	prefetchRetries  atomic.Int64
	breakerTrips     atomic.Int64
	breakerRecovered atomic.Int64
	droppedBreaker   atomic.Int64
	armPromotions    atomic.Int64
}

// sharedFile is the per-inode state shared by all descriptors of a file:
// the user-level range tree (the imported cache bitmap) and activity
// tracking for the inactive-file LRU. The fields past tree are under
// Runtime.mu.
type sharedFile struct {
	inoID int64
	name  string
	kf    *vfs.File // any descriptor, used for background prefetch/evict
	tree  *rangetree.Tree

	refs          int          // live descriptors
	lastAccess    simtime.Time // virtual time of last access
	fetchAll      bool         // whole-file prefetch kicked off
	droppedBehind bool         // a stream has given back its wake (File.dropBehind)
	askedAt       simtime.Time // last whole-file drop

	// ens, when non-nil (Options.Ensemble), is the per-inode competing-
	// predictor ensemble, observed by all of the inode's descriptors. The
	// ensemble owns its own arm-0 counter — the per-descriptor predictor
	// stays untouched for the non-ensemble path.
	ens *predictor.Ensemble

	brk breaker // background-prefetch circuit breaker
}

// breaker is the per-file circuit breaker over background prefetch
// (§fault tolerance): repeated device failures open it, suppressing
// prefetch so the file degrades to demand reads; after a cool-off it
// half-opens and a single probe prefetch decides whether it closes.
type breaker struct {
	fails    int          // consecutive background prefetch failures
	open     bool         // prefetch suppressed
	reopenAt simtime.Time // when an open breaker next admits a probe
}

// allow reports whether a prefetch may proceed at now: always while
// closed, and past reopenAt while open (half-open probing). The probe
// is resolved where a prefetch is actually issued — intents that pass
// this check but die on the way (already cached, batching hysteresis)
// don't consume it; a failed probe pushes reopenAt out again.
func (b *breaker) allow(now simtime.Time) bool {
	return !b.open || now >= b.reopenAt
}

// failure records a definitive prefetch failure; reports whether this
// one tripped the breaker (closed -> open edge).
func (b *breaker) failure(now simtime.Time, threshold int, cooloff simtime.Duration) bool {
	b.fails++
	b.reopenAt = now.Add(cooloff)
	if b.open {
		return false // failed half-open probe: stay open, extend cool-off
	}
	if b.fails >= threshold {
		b.open = true
		return true
	}
	return false
}

// success records a prefetch success; reports whether it closed an open
// breaker (a recovery).
func (b *breaker) success() bool {
	b.fails = 0
	if b.open {
		b.open = false
		return true
	}
	return false
}

// touch raises sf's last access to at.
func (rt *Runtime) touch(sf *sharedFile, at simtime.Time) {
	rt.mu.Lock()
	sf.lastAccess = max(sf.lastAccess, at)
	rt.mu.Unlock()
}

// New returns a runtime over the given kernel with the given options.
func New(v *vfs.VFS, opt Options) *Runtime {
	opt = opt.withDefaults()
	rt := &Runtime{
		v:       v,
		opt:     opt,
		workers: simtime.NewWorkerPool(helperWorkers, 0),
		files:   make(map[int64]*sharedFile),
	}
	return rt
}

// NewForApproach returns a runtime configured for a paper approach.
func NewForApproach(v *vfs.VFS, a Approach) *Runtime {
	return New(v, a.Options())
}

// VFS exposes the kernel below the runtime.
func (rt *Runtime) VFS() *vfs.VFS { return rt.v }

// SetTelemetry installs the telemetry recorder (nil disables).
func (rt *Runtime) SetTelemetry(rec *telemetry.Recorder) { rt.rec = rec }

// SetTracer installs the span tracer (nil disables tracing).
func (rt *Runtime) SetTracer(tr *telemetry.Tracer) { rt.tr = tr }

// SetScorecard installs the windowed scorecard sink for the ensemble's
// shadow-mode bookings (nil disables).
func (rt *Runtime) SetScorecard(s *telemetry.Scorecard) { rt.score = s }

// SharedFiles reports live per-inode state entries (leak detection).
func (rt *Runtime) SharedFiles() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.files)
}

// Options reports the active configuration.
func (rt *Runtime) Options() Options { return rt.opt }

// Stats is a snapshot of runtime counters.
type Stats struct {
	PrefetchCalls    int64 // readahead_info calls issued by the library
	SavedPrefetches  int64 // prefetch intents satisfied from user bitmaps
	PrefetchedPages  int64
	EvictedPages     int64
	FincorePolls     int64
	OpenPrefetches   int64
	DroppedPrefetch  int64 // intents dropped because every helper was booked solid
	DroppedLowMemory int64 // intents the budget gate refused under the halt mark (§4.6)
	WorkerJobs       int64
	// Fault-tolerance counters: transient-fault retries issued, per-file
	// breaker trips and recoveries, and prefetch intents dropped while a
	// breaker was open.
	PrefetchRetries   int64
	BreakerTrips      int64
	BreakerRecoveries int64
	DroppedBreaker    int64
	// Always zero: the intent aggregator these counted is gone (PR 16),
	// but the frozen bench/layers.go still reads the fields.
	BatchedIntents  int64
	VectoredFlushes int64
	// ArmPromotions counts live-arm changes by the ensemble's bandit.
	ArmPromotions int64
}

// Stats snapshots the runtime counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		PrefetchCalls:    rt.prefetchCalls.Load(),
		SavedPrefetches:  rt.savedPrefetch.Load(),
		PrefetchedPages:  rt.prefetchedPgs.Load(),
		EvictedPages:     rt.evictedPgs.Load(),
		FincorePolls:     rt.fincorePolls.Load(),
		OpenPrefetches:   rt.openPrefetches.Load(),
		DroppedPrefetch:  rt.droppedPrefetch.Load(),
		DroppedLowMemory: rt.droppedLowMemory.Load(),
		WorkerJobs:       rt.workers.Jobs(),

		PrefetchRetries:   rt.prefetchRetries.Load(),
		BreakerTrips:      rt.breakerTrips.Load(),
		BreakerRecoveries: rt.breakerRecovered.Load(),
		DroppedBreaker:    rt.droppedBreaker.Load(),
		ArmPromotions:     rt.armPromotions.Load(),
	}
}

// ArmScore is one arm's entry in a PredictorRow.
type ArmScore struct {
	Arm   string  `json:"arm"`
	Score float64 `json:"score"`
	Live  bool    `json:"live"`
}

// PredictorRow is one inode's live ensemble state for the admin plane.
type PredictorRow struct {
	Ino        int64      `json:"ino"`
	Name       string     `json:"name,omitempty"`
	Live       string     `json:"live"`
	Observes   int64      `json:"observes"`
	Promotions int64      `json:"promotions"`
	Arms       []ArmScore `json:"arms"`
}

// PredictorTable snapshots every live inode's ensemble — live arm, bandit
// scores per arm, observation and promotion totals — sorted by inode so
// the output is deterministic. Empty when Options.Ensemble is off.
func (rt *Runtime) PredictorTable() []PredictorRow {
	var rows []PredictorRow
	rt.mu.Lock()
	for _, sf := range rt.files {
		e := sf.ens
		if e == nil {
			continue
		}
		row := PredictorRow{
			Ino:        sf.inoID,
			Name:       sf.name,
			Live:       e.Live().String(),
			Observes:   e.Observes(),
			Promotions: e.Promotions(),
		}
		for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
			row.Arms = append(row.Arms, ArmScore{
				Arm:   a.String(),
				Score: e.Score(a),
				Live:  a == e.Live(),
			})
		}
		rows = append(rows, row)
	}
	rt.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Ino < rows[j].Ino })
	return rows
}

// shared returns (creating on demand) the shared per-inode state.
func (rt *Runtime) shared(kf *vfs.File, name string) *sharedFile {
	ino := kf.Inode().ID()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sf, ok := rt.files[ino]
	if !ok {
		sf = &sharedFile{
			inoID: ino,
			name:  name,
			kf:    kf,
			tree:  rangetree.New(rt.opt.RangeTreeSpan, rt.v.Config().Costs),
		}
		if rt.opt.Ensemble && rt.opt.Predict {
			sf.ens = predictor.NewEnsemble(predictor.DefaultEnsembleConfig(), ino)
			// Shadow books only earn credit for coverage the system does
			// not already have — without this every arm free-rides on the
			// live arm's real prefetches and the bandit promotes redundant
			// challengers. Coverage = exported kernel residency (§4.2
			// truth, immune to stale lib belief) plus in-flight requests.
			// Not for the live arm of a file a stream drops behind: there
			// the budget lets its real windows run deeper than any shadow
			// window, so what covers its candidates is its own success,
			// and trimming them would score it as an arm that predicts
			// nothing (DESIGN.md §24). Observe calls it under rt.mu.
			fc := kf.FileCache()
			sf.ens.SetFilter(func(live bool, lo, hi int64) (int64, int64) {
				if live && sf.droppedBehind {
					return lo, hi
				}
				lo, hi = fc.NonResidentSpan(lo, hi)
				return sf.tree.UnrequestedSpan(lo, hi)
			})
		}
		rt.files[ino] = sf
	}
	sf.refs++
	return sf
}

// DropCaches resets the runtime's user-level cache belief (paired with a
// kernel-level drop between experiment phases).
func (rt *Runtime) DropCaches(tl *simtime.Timeline) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, sf := range rt.files {
		sf.tree.ClearCached(tl, 0, sf.kf.Inode().Blocks())
		sf.fetchAll = false
	}
}

// budget reports the effective page budget the runtime works against.
func (rt *Runtime) budget() int64 {
	cap := rt.v.Cache().Capacity()
	if rt.opt.MemoryBudgetPages > 0 && rt.opt.MemoryBudgetPages < cap {
		return rt.opt.MemoryBudgetPages
	}
	return cap
}

// The free-memory marks of the budget loop (§4.6, DESIGN.md §24), as
// fractions of the budget, in the kernel's three-watermark shape: above
// highWaterFrac aggressive prefetch sizes are allowed; below evictWaterFrac
// the evictor wakes (maybeEvict) and refills to evictRefillFrac; only below
// lowWaterFrac does prefetching halt (budgetGate). They sit above the
// kernel's own (kswapd maintains ~1/8 free): CROSS-LIB must act before the
// kernel's blind LRU does.
//
// The margin rule: the evictor is polled every EvictCheckOps operations, so
// the band between its mark and the halt must exceed what that many reads
// consume, or a stream reaches the halt between two polls and loses its
// prefetch window until the next one — 32 x 64 KB is 0.8 % of a 256 MB
// budget, 32 x 16 KB is 1.6 % of a 32 MB one. It is kept as narrow as that
// allows: pages evicted early are pages a re-reading workload fetches again.
const (
	highWaterFrac   = 0.30
	evictWaterFrac  = lowWaterFrac + 0.02
	lowWaterFrac    = 0.15
	evictRefillFrac = evictWaterFrac + 0.05
)

// low < evict < high, held by the compiler: a map literal with a duplicate
// constant key does not compile, so the second key has to be true.
var _ = map[bool]struct{}{false: {}, lowWaterFrac < evictWaterFrac && evictWaterFrac < highWaterFrac: {}}

// freeFrac reports free budget as a fraction of the budget.
func (rt *Runtime) freeFrac() float64 {
	b := rt.budget()
	free := b - rt.v.Cache().Used()
	if free < 0 {
		free = 0
	}
	return float64(free) / float64(b)
}

// tick counts one intercepted operation and returns the count.
func (rt *Runtime) tick() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ops++
	return rt.ops
}

// maybeEvict is the budget poll behind every intercepted operation: when
// op's tick has crossed a multiple of EvictCheckOps since the last poll and
// free memory is under evictWaterFrac — ahead of the halt, so that a stream
// keeps its prefetch window while the pass runs — it books one pass of the
// aggressive reclamation policy (§4.6) on a helper thread. Crossing, not
// landing on, a multiple: a ring submit polls once with its batch's last
// tick, which meets a multiple only by chance.
func (rt *Runtime) maybeEvict(tl *simtime.Timeline, op int64) {
	if !rt.opt.AggressiveEvict {
		return
	}
	epoch := op / rt.opt.EvictCheckOps
	rt.mu.Lock()
	due := epoch > rt.evictEpoch
	if due {
		rt.evictEpoch = epoch
	}
	rt.mu.Unlock()
	if !due || rt.freeFrac() >= evictWaterFrac {
		return
	}
	now := tl.Now()
	rt.workers.Run(now, func(wtl *simtime.Timeline) {
		rt.evictPass(wtl, now)
	})
}

// evictPass frees just enough budget to climb from the evictor's mark back
// to evictRefillFrac: whole inactive files first (front of the inactive LRU
// list), then the least recently touched ranges of the coldest files, via
// fadvise(DONTNEED) — the paper's two-pronged reclamation (§4.6). The
// refill is eager enough that the next poll finds headroom, modest enough
// not to thrash pages the readers are about to use; a range goes whole (one
// range-tree node), so a pass may overshoot its target by up to a node.
//
// The pass chooses the file, the range and the moment; which pages of the
// range go is the kernel's answer (vfs.AdvDontNeedCold, DESIGN.md §24): it
// keeps the ones it has seen re-used, which age at this scale cannot tell
// from a stream's wake. An idle file is asked once per InactiveAge, and the
// second time in a row for everything: the kernel ages its active list only
// when the inactive one runs dry, which a stream never lets it, so what it
// kept and nobody has read since is the library's to take back.
func (rt *Runtime) evictPass(wtl *simtime.Timeline, now simtime.Time) {
	rt.mu.Lock()
	defer rt.mu.Unlock()

	budget := rt.budget()
	wantFree := int64(float64(budget) * evictRefillFrac)
	target := wantFree - (budget - rt.v.Cache().Used())
	if target <= 0 {
		return
	}

	// Snapshot files ordered by last access (coldest first; inode order
	// among files touched at the same instant, so that the pass does not
	// depend on map iteration order).
	candidates := rt.evictFiles[:0]
	for _, sf := range rt.files {
		candidates = append(candidates, sf)
	}
	defer func() { clear(candidates); rt.evictFiles = candidates[:0] }()
	coldBefore := now.Add(-rt.opt.InactiveAge)
	if !slices.ContainsFunc(candidates, func(sf *sharedFile) bool { return rt.evictable(sf, now, coldBefore) }) {
		return // most passes: nothing to sort, nothing to drop
	}
	slices.SortFunc(candidates, func(a, b *sharedFile) int {
		if c := cmp.Compare(a.lastAccess, b.lastAccess); c != 0 {
			return c
		}
		return cmp.Compare(a.inoID, b.inoID)
	})

	freed := int64(0)
	// Pass 1: whole inactive files.
	for _, sf := range candidates {
		if freed >= target {
			return
		}
		last := sf.lastAccess
		if now.Sub(last) < rt.opt.InactiveAge {
			break // list is sorted; the rest are hotter
		}
		if sf.kf.FileCache().CachedPages() == 0 || now.Sub(sf.askedAt) < rt.opt.InactiveAge {
			continue
		}
		adv := vfs.AdvDontNeedCold
		if sf.askedAt > last {
			adv = vfs.AdvDontNeed // asked since anyone read it: the rest goes too
		}
		freed += rt.dontNeed(wtl, sf, adv, 0, sf.kf.Inode().Blocks())
		sf.askedAt = now
	}
	// Pass 2: ranges that have genuinely gone inactive. Ranges touched
	// recently are left alone even under pressure — evicting the live
	// working set would only be re-fetched (churn), so when nothing is
	// cold the library lets the kernel LRU arbitrate.
	for _, sf := range candidates {
		if freed >= target {
			return
		}
		rt.evictRanges = sf.tree.AppendColdestRanges(rt.evictRanges[:0])
		for _, cr := range rt.evictRanges {
			if freed >= target {
				return
			}
			if cr.LastTouch >= coldBefore {
				break // sorted by recency: the rest are hotter
			}
			if cr.Requested > 0 {
				// A prefetch wavefront: blocks a prefetch claimed, in
				// flight or settled, that no reader has consumed. Only a
				// read's mark clears the claim and moves LastTouch; the
				// completion (ImportBitmap) does neither, so spans a
				// stream prefetched ahead of itself look cold. Evicting
				// them would discard exactly the pages prefetch just paid
				// for. A prefetch nobody reads keeps its node out of this
				// pass until pass 1 drops the whole file.
				continue
			}
			hi := cr.Hi
			if fb := sf.kf.Inode().Blocks(); hi > fb {
				hi = fb
			}
			if hi <= cr.Lo {
				continue
			}
			freed += rt.dontNeed(wtl, sf, vfs.AdvDontNeedCold, cr.Lo, hi)
		}
	}
}

// evictable reports whether an eviction pass at now would drop sf whole
// (pass 1) or one of its ranges (pass 2). A pass in which no file is
// evictable drops nothing and changes no state, so it returns before it
// sorts the files and their ranges. Caller holds rt.mu.
func (rt *Runtime) evictable(sf *sharedFile, now, coldBefore simtime.Time) bool {
	if now.Sub(sf.lastAccess) >= rt.opt.InactiveAge &&
		now.Sub(sf.askedAt) >= rt.opt.InactiveAge && sf.kf.FileCache().CachedPages() > 0 {
		return true
	}
	return sf.tree.HasColdRange(coldBefore, sf.kf.Inode().Blocks())
}

// dontNeed drops blocks [lo, hi) of sf from the kernel's cache, as adv says,
// and from the library's belief — all of them, also those a cold drop
// spares: a stale "not cached" costs a crossing the bitmap would have
// elided, a stale "cached" would elide a prefetch that is needed, and a
// range believed empty is not asked about again until a reader has been
// back. It reports the pages that freed. A fadvise(2) returns
// no count, so the credit is the file's residency before minus after — what
// the call actually freed, not the range's pre-call count: pages beyond EOF
// after a truncate or dirty pages a flush pins survive the DONTNEED, and
// crediting them would end the pass with the budget still over target. It
// is never negative: another thread inserting into the file between the two
// reads can push the delta below zero, and EvictedPages only ever grows.
func (rt *Runtime) dontNeed(wtl *simtime.Timeline, sf *sharedFile, adv vfs.Advice, lo, hi int64) int64 {
	fc, bs := sf.kf.FileCache(), rt.v.BlockSize()
	before := fc.CachedPages()
	sf.kf.Fadvise(wtl, adv, lo*bs, (hi-lo)*bs)
	sf.tree.ClearCached(wtl, lo, hi)
	freed := max(before-fc.CachedPages(), 0)
	rt.evictedPgs.Add(freed)
	return freed
}
