// Package crosslib implements CROSS-LIB, the user-level half of
// CrossPrefetch (§4): a shim runtime that intercepts file I/O, detects
// per-descriptor access patterns, keeps a user-level copy of the kernel's
// per-inode cache bitmap in a concurrent range tree, prefetches through
// the readahead_info system call on background helper threads, and applies
// memory-budget-driven aggressive prefetching and eviction.
package crosslib

import (
	"repro/internal/rangetree"
	"repro/internal/simtime"
)

// Options selects which CROSS-LIB mechanisms are active. The presets below
// correspond to the paper's comparison approaches (Table 2) and the
// incremental breakdown (Table 5).
type Options struct {
	// Enabled turns interception on, prefetching through readahead_info
	// and the imported cache bitmaps; disabled means pure passthrough to
	// the kernel (the OSonly / APPonly baselines).
	Enabled bool
	// Predict drives prefetching from the per-descriptor pattern
	// detector. Mutually exclusive with FetchAll.
	Predict bool
	// FetchAll prefetches entire files on open using cache awareness
	// (the idealistic, memory-insensitive [+fetchall] policy).
	FetchAll bool
	// CoveragePrefetch populates missing blocks around random accesses
	// while free memory lasts — the budget-driven aggressive prefetching
	// that cuts compulsory misses (§4.6) even for non-sequential
	// patterns, which pattern windows alone cannot reach.
	CoveragePrefetch bool
	// OptLimits passes prefetch-limit overrides to the kernel (§4.7) and
	// enables the memory-budget aggressive prefetch policy.
	OptLimits bool
	// AggressiveEvict enables the budget-driven eviction of inactive
	// files via fadvise(DONTNEED) (§4.6).
	AggressiveEvict bool
	// RangeTreeSpan is the range-tree node width in blocks; 0 selects a
	// single-node tree (the per-file-bitmap-lock baseline of Table 5).
	RangeTreeSpan int64
	// MaxPrefetchBytes caps a single prefetch request (paper: 64MB).
	MaxPrefetchBytes int64
	// MemoryBudgetPages is the per-process cache budget; 0 means the
	// whole system budget.
	MemoryBudgetPages int64
	// InactiveAge marks a file inactive after this much virtual time
	// without access (paper: 30s on a real machine; scaled down to match
	// simulated experiment durations).
	InactiveAge simtime.Duration
	// EvictCheckOps throttles budget checks to once per this many
	// intercepted operations.
	EvictCheckOps int64

	// Ensemble runs the competing-predictor ensemble per inode: the
	// sequentiality counter and a MITHRIL-style association miner score
	// every access concurrently (shadow mode), and a windowed bandit
	// promotes the winning arm — only the live arm's candidates reach the
	// prefetch path. Requires Predict;
	// off, the per-descriptor counter drives prefetch exactly as before
	// (one nil check on the hot path).
	Ensemble bool

	// RetryMax is how many times a background prefetch retries a
	// transient device fault before giving up (negative disables
	// retries), backing off per retryDelay. Persistent faults are never
	// retried.
	RetryMax int
	// BreakerThreshold trips a per-file circuit breaker after this many
	// consecutive background prefetch failures. While open, prefetch for
	// the file is dropped — the application degrades to plain demand
	// reads — until BreakerCooloff elapses and a probe prefetch
	// succeeds. <= 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooloff is how long an open breaker suppresses prefetch
	// before half-opening for a single probe.
	BreakerCooloff simtime.Duration
	// FaultSeed seeds the retry jitter hash.
	FaultSeed int64
}

// helperWorkers is the number of background prefetch helper threads (the
// artifact's NR_WORKERS_VAR). It is not a setting: on 16-thread
// multireadrandom one, four and eight helpers read 439, 438 and 436 kops/s.
const helperWorkers = 4

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.MaxPrefetchBytes <= 0 {
		o.MaxPrefetchBytes = 64 << 20
	}
	if o.InactiveAge <= 0 {
		o.InactiveAge = 100 * simtime.Millisecond
	}
	if o.EvictCheckOps <= 0 {
		o.EvictCheckOps = 32
	}
	if o.RetryMax == 0 {
		o.RetryMax = 2
	}
	if o.RetryMax < 0 {
		o.RetryMax = 0
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 8
	}
	if o.BreakerCooloff <= 0 {
		o.BreakerCooloff = 20 * simtime.Millisecond
	}
	return o
}

// Approach names the paper's comparison configurations (Tables 2 and 5).
type Approach int

// Comparison approaches.
const (
	// OSOnly: prefetching fully delegated to kernel readahead (the zero
	// value — a plain unmodified kernel).
	OSOnly Approach = iota
	// AppOnly: application-tailored prefetching with readahead/fadvise;
	// CROSS-LIB inactive. The application logic lives in each workload.
	AppOnly
	// AppOnlyFincore: AppOnly plus a background thread polling fincore
	// for cache state (motivation Figure 2 only).
	AppOnlyFincore
	// CrossVisibility: Table 5 "+cache visibility" — readahead_info with
	// predictor, single-node tree, static kernel limits.
	CrossVisibility
	// CrossPredict: Table 2 CrossP[+predict], and Table 5 "+range tree"
	// (the range tree is what it adds to CrossVisibility).
	CrossPredict
	// CrossPredictOpt: Table 2 CrossP[+predict+opt] — the full system.
	CrossPredictOpt
	// CrossFetchAllOpt: Table 2 CrossP[+fetchall+opt] — idealistic,
	// memory-insensitive whole-file prefetch.
	CrossFetchAllOpt
)

// String names the approach as the paper does.
func (a Approach) String() string {
	switch a {
	case AppOnly:
		return "APPonly"
	case AppOnlyFincore:
		return "APPonly[fincore]"
	case OSOnly:
		return "OSonly"
	case CrossVisibility:
		return "CrossP[+visibility]"
	case CrossPredict:
		return "CrossP[+predict]"
	case CrossPredictOpt:
		return "CrossP[+predict+opt]"
	case CrossFetchAllOpt:
		return "CrossP[+fetchall+opt]"
	default:
		return "unknown"
	}
}

// UsesLib reports whether the approach activates CROSS-LIB.
func (a Approach) UsesLib() bool { return a >= CrossVisibility }

// Options returns the CROSS-LIB configuration for the approach. Baselines
// return a disabled configuration.
func (a Approach) Options() Options {
	o := Options{}
	switch a {
	case CrossVisibility:
		o = Options{Enabled: true, Predict: true,
			CoveragePrefetch: true}
	case CrossPredict:
		o = Options{Enabled: true, Predict: true,
			CoveragePrefetch: true, RangeTreeSpan: rangetree.DefaultSpan}
	case CrossPredictOpt:
		o = Options{Enabled: true, Predict: true,
			CoveragePrefetch: true, OptLimits: true, AggressiveEvict: true,
			RangeTreeSpan: rangetree.DefaultSpan}
	case CrossFetchAllOpt:
		o = Options{Enabled: true, FetchAll: true,
			OptLimits: true, RangeTreeSpan: rangetree.DefaultSpan}
	}
	return o.withDefaults()
}
