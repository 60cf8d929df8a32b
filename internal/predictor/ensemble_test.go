package predictor

import (
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// chain is the sporadic-association chain only MITHRIL can learn.
var chain = []int64{100, 900, 350, 1500, 50, 2200}

// flipEvent is one bandit promotion, recorded at its observation index.
type flipEvent struct {
	At       int64
	From, To telemetry.Arm
}

// driveFlip replays the satellite workload on e: a pure-sequential phase
// the counter owns, then a repeating sporadic-association chain only the
// MITHRIL arm can learn (strides vary, so the counter collapses to
// random). Returns the promotion history, the final live arm, and the
// final per-arm scores.
func driveFlip(e *Ensemble) ([]flipEvent, telemetry.Arm, [telemetry.NumArms]float64) {
	var events []flipEvent
	var obs int64
	feed := func(lo, blocks int64) {
		r := e.Observe(lo, blocks)
		obs++
		if r.Promoted {
			events = append(events, flipEvent{At: obs, From: r.OldArm, To: r.NewArm})
		}
	}
	for i := int64(0); i < 256; i++ {
		feed(i*4, 4) // sequential: 4-block reads, back to back
	}
	for i := int64(0); i < 512; i++ {
		feed(chain[i%int64(len(chain))], 1)
	}
	var scores [telemetry.NumArms]float64
	for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
		scores[a] = e.Score(a)
	}
	return events, e.Live(), scores
}

// TestBanditFlipHysteresis: flipping the workload from sequential to the
// association chain mid-run must demote the streaming arm and promote
// MITHRIL within K = 6 bandit windows of the flip — but not instantly
// (the Margin+Patience hysteresis needs at least Patience window
// rotations of sustained evidence). Two runs must reproduce the identical
// promotion history.
func TestBanditFlipHysteresis(t *testing.T) {
	const (
		flipAt  = 256 // first association-chain observation
		windows = 6
		K       = flipAt + windows*windowObs
	)
	events, live, scores := driveFlip(NewEnsemble(DefaultEnsembleConfig(), 42))
	if live != telemetry.ArmMithril {
		t.Fatalf("final live arm = %v, want mithril (events %+v, scores %v)", live, events, scores)
	}
	var promotedAt int64
	for _, ev := range events {
		if ev.At > flipAt && ev.To == telemetry.ArmMithril {
			promotedAt = ev.At
			break
		}
	}
	if promotedAt == 0 {
		t.Fatalf("no promotion to mithril after the flip: %+v", events)
	}
	if promotedAt > K {
		t.Fatalf("mithril promoted at obs %d, want within %d windows of the flip (obs %d)",
			promotedAt, windows, K)
	}
	// Hysteresis: promotion cannot precede patience window rotations of
	// chain evidence.
	if min := int64(flipAt + (patience-1)*windowObs); promotedAt < min {
		t.Fatalf("mithril promoted at obs %d, before the %d-window hysteresis could pass (min %d)",
			promotedAt, patience, min)
	}

	events2, live2, scores2 := driveFlip(NewEnsemble(DefaultEnsembleConfig(), 42))
	if !reflect.DeepEqual(events, events2) || live != live2 || scores != scores2 {
		t.Fatalf("same input, different runs:\n  %+v %v %v\n  %+v %v %v",
			events, live, scores, events2, live2, scores2)
	}
}

// TestEnsembleShadowIdentity: per arm, every page ever booked is exactly
// once hit, expired, or still outstanding — the identity the telemetry
// audit enforces end to end, checked here at the source.
func TestEnsembleShadowIdentity(t *testing.T) {
	e := NewEnsemble(DefaultEnsembleConfig(), 1)
	var issued, hit, expired [telemetry.NumArms]int64
	feed := func(lo, blocks int64) {
		r := e.Observe(lo, blocks)
		for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
			issued[a] += r.Issued[a]
			hit[a] += r.Hit[a]
			expired[a] += r.Expired[a]
		}
	}
	// Sequential, then a strided run, then the association chain: the
	// counter books the first two phases, MITHRIL the third.
	for i := int64(0); i < 200; i++ {
		feed(i*4, 4)
	}
	for i := int64(0); i < 200; i++ {
		feed(5000+i*16, 4)
	}
	for i := int64(0); i < 200; i++ {
		feed(chain[i%int64(len(chain))], 1)
	}
	for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
		if issued[a] == 0 {
			t.Fatalf("arm %v booked nothing over the mixed workload", a)
		}
		got := hit[a] + expired[a] + e.Outstanding(a)
		if got != issued[a] {
			t.Fatalf("arm %v: issued %d != hit %d + expired %d + outstanding %d",
				a, issued[a], hit[a], expired[a], e.Outstanding(a))
		}
	}
}

// TestEnsembleCandidateClamp: shadow books must mirror the issue path's
// per-window readahead clamp. The saturated counter proposes 256-block
// windows; with MaxCandidateBlocks = 4 no single observation may book
// more than 4 counter pages.
func TestEnsembleCandidateClamp(t *testing.T) {
	cfg := DefaultEnsembleConfig()
	cfg.MaxCandidateBlocks = 4
	e := NewEnsemble(cfg, 1)
	for i := int64(0); i < 300; i++ {
		r := e.Observe(i*4, 4)
		if r.Issued[telemetry.ArmCounter] > 4 {
			t.Fatalf("obs %d: counter booked %d pages, clamp is 4", i, r.Issued[telemetry.ArmCounter])
		}
	}
}

// TestEnsembleFilter: the coverage prefilter gates shadow booking — a
// filter that reports everything covered keeps every arm's books at
// zero, while the live arm's real candidates still flow (the prefetch
// path runs its own dedupe).
func TestEnsembleFilter(t *testing.T) {
	e := NewEnsemble(DefaultEnsembleConfig(), 1)
	e.SetFilter(func(_ bool, lo, hi int64) (int64, int64) { return lo, lo })
	sawLive := false
	for i := int64(0); i < 300; i++ {
		r := e.Observe(i*4, 4)
		for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
			if r.Issued[a] != 0 {
				t.Fatalf("obs %d: arm %v booked %d pages through an all-covered filter", i, a, r.Issued[a])
			}
		}
		if len(r.Candidates) > 0 {
			sawLive = true
		}
	}
	if !sawLive {
		t.Fatal("filter must not suppress the live arm's real candidates")
	}
}

// TestEnsembleArmsMatchRegistry: every registered arm has an
// implementation in the ensemble, under its registered name — a
// telemetry.Arm with no arm behind it would be a nil dereference on the
// first Observe.
func TestEnsembleArmsMatchRegistry(t *testing.T) {
	e := NewEnsemble(DefaultEnsembleConfig(), 1)
	for a := telemetry.ArmCounter; a < telemetry.NumArms; a++ {
		s := e.arms[a]
		if s == nil {
			t.Fatalf("registered arm %v has no implementation in the ensemble", a)
		}
		if got := s.arm.Name(); got != a.String() {
			t.Fatalf("arm slot %d is named %q, registry says %q", a, got, a.String())
		}
	}
}

// TestEnsembleObserveWarmZeroAlloc holds the Arm contract ("the warm path
// must not allocate") with MITHRIL live and the counter in shadow. The
// chain drive promotes MITHRIL, so its candidates land in the result's
// buffer; the period then interleaves the chain with a stride-100 stream
// that never revisits a block, handing MITHRIL a new head every other
// access, so its full table rotates an entry out per insertion, which
// used to allocate the entry that replaced it. The case this test first
// pinned, a shadow arm proposing more windows than the shared scratch's
// initial 8 and regrowing it on every observation, has no arm left to
// produce it: the counter proposes at most one window and MITHRIL at most
// assocSuccessors. One run is a whole mining period: AllocsPerRun rounds
// down, and the table's 0.997 allocations per observation read as 0.
func TestEnsembleObserveWarmZeroAlloc(t *testing.T) {
	e := NewEnsemble(DefaultEnsembleConfig(), 1)
	if _, live, _ := driveFlip(e); live != telemetry.ArmMithril {
		t.Fatalf("chain drive left %v live, want mithril", live)
	}
	lo, step := int64(1_000_000), 0
	period := func() {
		for i := 0; i < mineEvery; i++ {
			if step%2 == 0 {
				e.Observe(chain[(step/2)%len(chain)], 1)
			} else {
				e.Observe(lo, 1)
				lo += 100
			}
			step++
		}
	}
	for i := 0; i < 256; i++ {
		period()
	}
	m := e.arms[telemetry.ArmMithril].arm.(*Mithril)
	if m.TableLen() != m.cfg.MaxAssoc {
		t.Fatalf("warm-up left %d of %d association entries: the table is not full", m.TableLen(), m.cfg.MaxAssoc)
	}
	if e.Live() != telemetry.ArmMithril {
		t.Fatalf("warm-up demoted mithril: %v is live", e.Live())
	}
	if n := testing.AllocsPerRun(50, period); n != 0 {
		t.Errorf("warm Ensemble.Observe: %v allocs per mining period, want 0", n)
	}
	if e.Live() != telemetry.ArmMithril {
		t.Fatalf("mithril was demoted during the measured periods: %v is live", e.Live())
	}
}
