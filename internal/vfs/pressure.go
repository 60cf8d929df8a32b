package vfs

import (
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Overload control for the ring path: a global pressure signal computed
// from the reclaim watermark distance and the device backlog drives
// three explicit brownout levels, and every shed or deadline-missed
// submission completes with one of the two exported sentinel errors
// below (never an ad-hoc error — the shedgate in `make check` enforces
// that), so callers can tell refused work from failed work.
//
// Brownout state machine (transitions traced as brownout-raised /
// brownout-lowered events and counted by CtrBrownoutTransitions):
//
//	BrownoutNormal ⇄ BrownoutPrefetchOff ⇄ BrownoutClamped
//
//	raise to PrefetchOff: cache above the high watermark, or device
//	  backlog past the congestion limit
//	raise to Clamped:     cache above capacity (direct-reclaim zone),
//	  or backlog past 4x the congestion limit
//	lower:                the same thresholds, re-evaluated on every
//	  ring_enter / readahead_info crossing
//
// At PrefetchOff and above, ring prefetch intents are shed with ErrShed
// before staging any device work (prefetch is degradable, reads are
// not — the Leap lesson). At Clamped, readahead_info windows are
// additionally clamped to brownoutClampPages, so even the opt path's
// limit override cannot amplify I/O while reclaim is drowning.

// Refusal is the error of a submission the ring turned away rather than
// failed. Its field is unexported and it has no constructor, so ErrShed and
// ErrDeadlineExceeded are its only values with a message: the functions
// that record a refusal take a *Refusal, and an ad-hoc error there — one
// callers' errors.Is dispatch would miss — does not compile.
type Refusal struct{ msg string }

func (r *Refusal) Error() string { return r.msg }

// ErrShed marks a submission refused under overload: the work was
// never issued to the device (brownout level >= 1 for prefetch
// intents, or a deadline the scheduler could not meet).
var ErrShed = &Refusal{"vfs: submission shed under overload"}

// ErrDeadlineExceeded marks a submission whose virtual deadline
// passed: either it expired before service (N = 0), or its data
// arrived after the deadline (reads keep their byte count — the
// pages are cached, merely late).
var ErrDeadlineExceeded = &Refusal{"vfs: submission deadline exceeded"}

// BrownoutLevel is the pressure controller's degradation level.
type BrownoutLevel int32

// Brownout levels, in raising order.
const (
	// BrownoutNormal: no degradation.
	BrownoutNormal BrownoutLevel = iota
	// BrownoutPrefetchOff: ring prefetch intents are shed with ErrShed.
	BrownoutPrefetchOff
	// BrownoutClamped: prefetch stays off and readahead_info windows are
	// clamped to brownoutClampPages regardless of limit override.
	BrownoutClamped
)

// String names the level.
func (l BrownoutLevel) String() string {
	switch l {
	case BrownoutNormal:
		return "normal"
	case BrownoutPrefetchOff:
		return "prefetch-off"
	case BrownoutClamped:
		return "clamped"
	}
	return "invalid"
}

// brownoutClampPages is the level-2 readahead window cap.
const brownoutClampPages = 8

// BrownoutLevel reports the controller's current level (always
// BrownoutNormal when Config.Brownout is off).
func (v *VFS) BrownoutLevel() BrownoutLevel {
	return BrownoutLevel(v.brownout.Load())
}

// computePressure derives the level from the cache's watermark distance
// and a device-backlog signal. The global state machine feeds it the
// stack-wide worst backlog; targeted decisions (targetPressure) feed the
// backlog of only the backends a request touches.
func (v *VFS) computePressure(backlog simtime.Duration) BrownoutLevel {
	used := v.cache.Used()
	switch {
	case used > v.cache.Capacity() || backlog > 4*v.cfg.CongestionLimit:
		return BrownoutClamped
	case used > v.cache.HighWater() || backlog > v.cfg.CongestionLimit:
		return BrownoutPrefetchOff
	}
	return BrownoutNormal
}

// pressureCheck re-evaluates the brownout level on a kernel crossing,
// tracing and counting each transition exactly once (concurrent
// crossings race on the CAS; the loser re-reads).
func (v *VFS) pressureCheck(tl *simtime.Timeline) BrownoutLevel {
	if !v.cfg.Brownout {
		return BrownoutNormal
	}
	next := v.computePressure(v.dev.Backlog(tl.Now()))
	for {
		old := BrownoutLevel(v.brownout.Load())
		if old == next {
			return next
		}
		if !v.brownout.CompareAndSwap(int32(old), int32(next)) {
			continue
		}
		v.rec.Add(telemetry.CtrBrownoutTransitions, 1)
		o := telemetry.OutcomeBrownoutRaised
		if next < old {
			o = telemetry.OutcomeBrownoutLowered
		}
		// Lo/Hi carry the old and new level so the trace shows the
		// trajectory; the "inode" slot is -1 (no file involved).
		v.rec.Event(tl.Now(), o, -1, int64(old), int64(next))
		return next
	}
}

// targetPressure evaluates the brownout thresholds for one prefetch
// intent over logical blocks [lo, hi): memory pressure is global, but
// the backlog component reads only the backends the range actually
// targets — a saturated remote tier must not shed prefetch bound for
// idle local devices. It never transitions the global state machine
// (pressureCheck owns that).
func (v *VFS) targetPressure(tl *simtime.Timeline, f *File, lo, hi int64) BrownoutLevel {
	if !v.cfg.Brownout {
		return BrownoutNormal
	}
	return v.computePressure(f.rangeBacklog(tl.Now(), lo, hi))
}
