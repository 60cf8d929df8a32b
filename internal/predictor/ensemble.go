// Competing-predictor ensemble: the sequentiality counter (§4.6) and a
// MITHRIL-style association miner run concurrently per inode. Only the
// *live* arm's candidates reach the prefetch path; the other runs in
// shadow mode, booking its would-have-prefetched windows into its
// scorecard. A windowed bandit promotes whichever arm's
// accuracy×coverage−pollution score wins, with hysteresis so a noisy
// window cannot thrash the live arm.
package predictor

import "repro/internal/telemetry"

// Candidate is one would-prefetch window proposed by an arm, in blocks.
type Candidate struct {
	Lo, Blocks int64
}

// Arm is the common interface of competing predictors: feed one access,
// get back the windows this arm would prefetch. Implementations append to
// dst (whose backing array the ensemble reuses across calls — the warm
// path must not allocate) and must be deterministic: no wall clock, no
// map iteration, no unseeded randomness.
type Arm interface {
	// Name is the stable identifier, matching telemetry.Arm.String().
	Name() string
	// Observe feeds one access of `blocks` blocks at block offset `lo`.
	Observe(lo, blocks int64, dst []Candidate) []Candidate
}

// counterArm adapts the per-descriptor sequentiality counter (§4.6) as
// ensemble arm 1. The ensemble owns a dedicated per-inode instance; the
// per-descriptor predictor that drives the non-ensemble path is untouched.
type counterArm struct {
	p *Predictor
}

func (c *counterArm) Name() string { return telemetry.ArmCounter.String() }

func (c *counterArm) Observe(lo, blocks int64, dst []Candidate) []Candidate {
	c.p.Observe(lo, blocks)
	if plo, pn := c.p.Next(); pn > 0 {
		dst = append(dst, Candidate{Lo: plo, Blocks: pn})
	}
	return dst
}

// EnsembleConfig carries the arms' tunables and the shadow-booking clamp;
// start from DefaultEnsembleConfig, whose values are all positive.
type EnsembleConfig struct {
	// Counter configures arm 1 (the sequentiality counter).
	Counter Config
	// Mithril configures arm 2 (association mining).
	Mithril MithrilConfig
	// MaxCandidateBlocks clamps each candidate at shadow-booking time,
	// mirroring the issue path's per-window readahead clamp (RA.MaxPages).
	// Without it an arm whose raw windows exceed what the system would
	// actually issue (the saturated counter emits BaseBlocks<<6 = 256
	// blocks) books phantom pages that can only expire, and the bandit
	// demotes it on its own best workload.
	MaxCandidateBlocks int64
}

// DefaultEnsembleConfig returns the default tuning.
func DefaultEnsembleConfig() EnsembleConfig {
	return EnsembleConfig{
		Counter:            DefaultConfig(),
		Mithril:            DefaultMithrilConfig(),
		MaxCandidateBlocks: 32,
	}
}

// The bandit's tuning: 64-observation windows, a 5% promotion margin and
// a 2-window hysteresis.
const (
	// windowObs is the bandit window length in observations.
	windowObs = 64
	// margin is how much a challenger's score must exceed the live arm's
	// before its promotion streak advances.
	margin = 0.05
	// patience is how many consecutive winning windows a challenger needs
	// before promotion (the hysteresis K).
	patience = 2
	// runTTLWindows is how many window rotations a shadow run survives
	// before its unconsumed pages are booked wasted.
	runTTLWindows = 2
)

// shadowRuns bounds the outstanding would-prefetch windows per arm; the
// oldest slot is overwritten (its residue booked wasted) when full.
const shadowRuns = 16

// pollutionWeight damps the pollution term of the bandit score. At full
// weight an arm whose hits and expiries balance scores below the
// do-nothing arm even though every hit saves a device fetch while an
// expired shadow page costs only a would-have-been-wasted prefetch; half
// weight keeps pollution punished without drowning real coverage.
const pollutionWeight = 0.5

// shadowRun is one outstanding would-prefetch window: [lo, hi) not yet
// consumed by a real access, born in bandit window `win`.
type shadowRun struct {
	lo, hi int64
	win    uint64
}

// armState is the per-arm shadow ledger: the outstanding-run ring, the
// current window's books, and the bandit's running score.
type armState struct {
	arm    Arm
	runs   [shadowRuns]shadowRun
	cursor int

	// Current-window books (reset at each rotation).
	wIssued, wHit, wExpired int64

	score  float64 // EWMA of windowed accuracy×coverage−pollution
	scored bool    // score holds at least one window
	streak int     // consecutive windows beating the live arm by margin
}

// ObserveResult reports one Observe call's outcome: the live arm's
// candidates plus the per-arm shadow deltas the caller books into
// telemetry. The struct (and the Candidates backing array) is owned by
// the Ensemble and reused across calls — consume before the next Observe.
type ObserveResult struct {
	// Live is the arm whose Candidates may be prefetched for real.
	Live telemetry.Arm
	// Candidates are the live arm's windows (backing array reused).
	Candidates []Candidate
	// Issued, Hit, Expired are this call's shadow-book deltas per arm:
	// pages newly booked as would-prefetch, pages consumed by this access,
	// and pages given up (TTL expiry or ring overwrite).
	Issued, Hit, Expired [telemetry.NumArms]int64
	// Promoted reports a live-arm change at this call's window boundary;
	// OldArm/NewArm identify it.
	Promoted       bool
	OldArm, NewArm telemetry.Arm
}

// Ensemble runs the competing arms for one inode. It is not synchronized;
// the owner (CROSS-LIB's shared-file state) serializes Observe calls.
type Ensemble struct {
	cfg  EnsembleConfig
	arms [telemetry.NumArms]*armState // indices 1.. populated

	live telemetry.Arm

	obsInWindow int
	window      uint64
	wAccessed   int64 // pages accessed in the current window

	// filter, when set, trims a candidate [lo, hi) to the span the caller
	// does not already cover (cached or in-flight) before shadow booking.
	// Without it every arm free-rides on the live arm's real prefetches:
	// predicting blocks the live arm already fetched earns full credit,
	// and the bandit promotes accurate-but-redundant arms. It is told
	// whether the arm is live, so that the caller can leave the live arm's
	// candidates whole where its own real windows run deeper than any
	// shadow window; the live arm's *real* candidates are returned
	// untrimmed (the prefetch path runs its own NeedsPrefetch dedupe).
	filter func(live bool, lo, hi int64) (int64, int64)

	observes   int64
	promotions int64

	res   ObserveResult
	cands []Candidate // scratch for shadow arms
}

// NewEnsemble returns an ensemble for one inode. Nothing reads the inode ID
// any more; the parameter stays because bench/probes.go passes it.
func NewEnsemble(cfg EnsembleConfig, _ int64) *Ensemble {
	e := &Ensemble{
		cfg:  cfg,
		live: telemetry.ArmCounter,
	}
	e.arms[telemetry.ArmCounter] = &armState{arm: &counterArm{p: New(cfg.Counter)}}
	e.arms[telemetry.ArmMithril] = &armState{arm: NewMithril(cfg.Mithril)}
	e.res.Candidates = make([]Candidate, 0, 8)
	e.cands = make([]Candidate, 0, 8)
	return e
}

// SetFilter installs the shadow-book coverage prefilter (see the field
// comment). Call once at setup, before the first Observe.
func (e *Ensemble) SetFilter(f func(live bool, lo, hi int64) (int64, int64)) { e.filter = f }

// Live reports the currently promoted arm.
func (e *Ensemble) Live() telemetry.Arm { return e.live }

// CounterState reports the counter arm's classification, live or not.
func (e *Ensemble) CounterState() State {
	return e.arms[telemetry.ArmCounter].arm.(*counterArm).p.State()
}

// Observes and Promotions report lifetime totals.
func (e *Ensemble) Observes() int64   { return e.observes }
func (e *Ensemble) Promotions() int64 { return e.promotions }

// Score reports arm a's current EWMA bandit score.
func (e *Ensemble) Score(a telemetry.Arm) float64 {
	if s := e.arms[a]; s != nil {
		return s.score
	}
	return 0
}

// Outstanding reports arm a's outstanding shadow pages (issued but
// neither hit nor expired), closing the issued == hit+expired+outstanding
// identity for tests.
func (e *Ensemble) Outstanding(a telemetry.Arm) int64 {
	s := e.arms[a]
	if s == nil {
		return 0
	}
	var n int64
	for i := range s.runs {
		if r := &s.runs[i]; r.hi > r.lo {
			n += r.hi - r.lo
		}
	}
	return n
}

// Observe feeds one access through every arm: credits each arm's
// outstanding shadow runs against the access, books the arms' new
// candidates, rotates the bandit window when due, and returns the live
// arm's candidates. The returned pointer (and its slices) is reused
// across calls.
func (e *Ensemble) Observe(lo, blocks int64) *ObserveResult {
	if blocks < 1 {
		blocks = 1
	}
	e.observes++
	r := &e.res
	r.Candidates = r.Candidates[:0]
	r.Promoted = false
	for i := range r.Issued {
		r.Issued[i], r.Hit[i], r.Expired[i] = 0, 0, 0
	}

	e.wAccessed += blocks
	for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
		s := e.arms[a]
		// Credit first: the access consumes outstanding shadow pages
		// booked by earlier observations (a run booked by THIS access's
		// candidates must not self-credit).
		hit, dropped := s.credit(lo, lo+blocks)
		s.wHit += hit
		s.wExpired += dropped
		r.Hit[a] = hit
		r.Expired[a] = dropped

		// Whichever buffer the arm appended to keeps what it grew to: an arm
		// that proposes more windows than the buffer held must not regrow
		// it on every observation.
		buf := &e.cands
		if a == e.live {
			buf = &r.Candidates
		}
		dst := s.arm.Observe(lo, blocks, (*buf)[:0])
		*buf = dst
		var issued, expired int64
		for _, c := range dst {
			if c.Blocks > e.cfg.MaxCandidateBlocks {
				c.Blocks = e.cfg.MaxCandidateBlocks
			}
			if e.filter != nil {
				flo, fhi := e.filter(a == e.live, c.Lo, c.Lo+c.Blocks)
				if fhi <= flo {
					continue
				}
				c = Candidate{Lo: flo, Blocks: fhi - flo}
			}
			i, x := s.book(c, e.window)
			issued += i
			expired += x
		}
		s.wIssued += issued
		s.wExpired += expired
		r.Issued[a] = issued
		r.Expired[a] += expired
	}
	r.Live = e.live

	e.obsInWindow++
	if e.obsInWindow >= windowObs {
		e.rotate(r)
	}
	return r
}

// credit consumes the overlap of access [alo, ahi) from the arm's
// outstanding runs and returns the pages hit plus the pages dropped: a
// run the access splits in the middle keeps its larger remainder, and
// the smaller is given up.
func (s *armState) credit(alo, ahi int64) (hit, dropped int64) {
	for i := range s.runs {
		ru := &s.runs[i]
		if ru.hi <= ru.lo || ru.hi <= alo || ru.lo >= ahi {
			continue
		}
		olo, ohi := ru.lo, ru.hi
		if alo > olo {
			olo = alo
		}
		if ahi < ohi {
			ohi = ahi
		}
		hit += ohi - olo
		switch {
		case alo <= ru.lo && ahi >= ru.hi:
			ru.lo, ru.hi = 0, 0 // fully consumed
		case alo <= ru.lo:
			ru.lo = ahi // head consumed
		case ahi >= ru.hi:
			ru.hi = alo // tail consumed
		default:
			// Middle split: keep the larger remainder, drop the smaller
			// as expired (a second fragment slot would complicate the
			// fixed ring for little scoring signal).
			head, tail := alo-ru.lo, ru.hi-ahi
			if head >= tail {
				ru.hi = alo
				dropped += tail
			} else {
				ru.lo = ahi
				dropped += head
			}
		}
	}
	return hit, dropped
}

// book records candidate c as an outstanding run, trimming the overlap
// with runs already outstanding (a real prefetch path would find those
// pages cached and not re-issue). Returns (pages issued, pages expired
// by evicting the overwritten ring slot).
func (s *armState) book(c Candidate, win uint64) (issued, expired int64) {
	lo, hi := c.Lo, c.Lo+c.Blocks
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return 0, 0
	}
	// Head/tail trim against every outstanding run. A run strictly inside
	// the candidate is left to double-book its few pages — bounding the
	// trim at one pass keeps the warm path O(shadowRuns).
	for i := range s.runs {
		ru := &s.runs[i]
		if ru.hi <= ru.lo || hi <= ru.lo || lo >= ru.hi {
			continue
		}
		if ru.lo <= lo {
			lo = ru.hi
		}
		if ru.hi >= hi {
			hi = ru.lo
		}
		if hi <= lo {
			return 0, 0
		}
	}
	slot := &s.runs[s.cursor]
	if slot.hi > slot.lo {
		expired = slot.hi - slot.lo
	}
	slot.lo, slot.hi, slot.win = lo, hi, win
	s.cursor++
	if s.cursor == shadowRuns {
		s.cursor = 0
	}
	return hi - lo, expired
}

// expire gives up runs older than the TTL, returning the pages dropped.
func (s *armState) expire(win uint64, ttl uint64) int64 {
	var n int64
	for i := range s.runs {
		ru := &s.runs[i]
		if ru.hi > ru.lo && win-ru.win >= ttl {
			n += ru.hi - ru.lo
			ru.lo, ru.hi = 0, 0
		}
	}
	return n
}

// rotate closes the bandit window: expires stale shadow runs, folds each
// arm's window books into its EWMA score, applies the
// promotion-with-hysteresis rule, and resets the window books. Promotion
// outcomes are reported on r.
func (e *Ensemble) rotate(r *ObserveResult) {
	e.window++
	for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
		s := e.arms[a]
		exp := s.expire(e.window, runTTLWindows)
		s.wExpired += exp
		r.Expired[a] += exp

		raw := 0.0
		if s.wIssued > 0 {
			acc := float64(s.wHit) / float64(s.wIssued)
			cov := 0.0
			if e.wAccessed > 0 {
				cov = float64(s.wHit) / float64(e.wAccessed)
				if cov > 1 {
					cov = 1
				}
			}
			pol := float64(s.wExpired) / float64(s.wIssued)
			raw = acc*cov - pollutionWeight*pol
		}
		// An arm that issued nothing scores 0 — worse than a useful arm,
		// better than a polluting one.
		if s.scored {
			s.score = 0.5*s.score + 0.5*raw
		} else {
			s.score, s.scored = raw, true
		}
		s.wIssued, s.wHit, s.wExpired = 0, 0, 0
	}
	e.wAccessed = 0
	e.obsInWindow = 0

	// Hysteresis: a challenger must beat the live score by margin for
	// patience consecutive windows. Streaks reset the window they fail.
	liveScore := e.arms[e.live].score
	var best telemetry.Arm
	bestScore := 0.0
	for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
		s := e.arms[a]
		if a == e.live {
			s.streak = 0
			continue
		}
		if s.score > liveScore+margin {
			s.streak++
		} else {
			s.streak = 0
		}
		if s.streak >= patience && (best == 0 || s.score > bestScore) {
			best, bestScore = a, s.score
		}
	}
	if best != 0 {
		e.promote(r, best)
	}
}

func (e *Ensemble) promote(r *ObserveResult, to telemetry.Arm) {
	r.Promoted = true
	r.OldArm, r.NewArm = e.live, to
	e.live = to
	e.promotions++
	for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
		e.arms[a].streak = 0
	}
}
