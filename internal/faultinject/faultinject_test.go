package faultinject

import (
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/simtime"
)

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{ReadFailProb: -0.1},
		{WriteFailProb: 1.5},
		{TransientFrac: 2},
		{StallProb: -1},
		{Ranges: []RangeFault{{Lo: 10, Hi: 10}}},
		{Ranges: []RangeFault{{Lo: -4, Hi: 8}}},
		{Stall: -simtime.Microsecond},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: want validation error, got nil", i)
		}
	}
	if err := (Plan{Seed: 1, ReadFailProb: 0.5, TransientFrac: 1}).Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestDeterministicVerdicts: two injectors compiled from the same plan
// must agree on every request, regardless of the order requests arrive.
func TestDeterministicVerdicts(t *testing.T) {
	plan := Plan{Seed: 42, ReadFailProb: 0.3, WriteFailProb: 0.1, TransientFrac: 0.5, StallProb: 0.2, Stall: simtime.Millisecond}
	a, b := New(plan), New(plan)
	const n = 4096
	// b sees the offsets in reverse order; verdicts must still match
	// because decisions hash the site, not the call sequence.
	type v struct {
		stall simtime.Duration
		fail  bool
		tr    bool
	}
	verdict := func(in *Injector, off int64) v {
		f := in.Inject(blockdev.OpRead, off, 4096)
		return v{f.Stall, f.Err != nil, blockdev.IsTransient(f.Err)}
	}
	va := make([]v, n)
	for i := int64(0); i < n; i++ {
		va[i] = verdict(a, i*4096)
	}
	for i := int64(n - 1); i >= 0; i-- {
		if got := verdict(b, i*4096); got != va[i] {
			t.Fatalf("offset %d: verdict %+v != %+v (order-dependent injection)", i*4096, got, va[i])
		}
	}
	if as, bs := a.Stats(), b.Stats(); as != bs {
		t.Fatalf("stats diverge: %+v vs %+v", as, bs)
	}
	if s := a.Stats(); s.Faults == 0 || s.Stalls == 0 {
		t.Fatalf("plan injected nothing over %d sites: %+v", n, s)
	}
}

// TestSeedChangesPattern: different seeds must produce different fault
// patterns (otherwise the seed is decorative).
func TestSeedChangesPattern(t *testing.T) {
	mk := func(seed uint64) []bool {
		in := New(Plan{Seed: seed, ReadFailProb: 0.5})
		out := make([]bool, 256)
		for i := range out {
			out[i] = in.Inject(blockdev.OpRead, int64(i)*4096, 4096).Err != nil
		}
		return out
	}
	a, b := mk(1), mk(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault patterns")
	}
}

func TestTransientClearsAfterRepeats(t *testing.T) {
	in := New(Plan{Seed: 7, TransientRepeats: 3,
		Ranges: []RangeFault{{Lo: 0, Hi: 4096, Class: Transient, Reads: true}}})
	for i := 0; i < 3; i++ {
		f := in.Inject(blockdev.OpRead, 0, 4096)
		if f.Err == nil {
			t.Fatalf("attempt %d: want transient fault, got success", i)
		}
		if !blockdev.IsTransient(f.Err) {
			t.Fatalf("attempt %d: fault not classified transient: %v", i, f.Err)
		}
	}
	if f := in.Inject(blockdev.OpRead, 0, 4096); f.Err != nil {
		t.Fatalf("attempt 4: transient site did not clear: %v", f.Err)
	}
	if s := in.Stats(); s.Cleared != 1 || s.Transient != 3 {
		t.Fatalf("stats after clear: %+v", s)
	}
}

func TestRangeRepeatsOverride(t *testing.T) {
	// Two transient ranges: one inherits the plan-wide budget (2), the
	// other overrides it to 5 — a brownout that outlasts the background
	// glitch rate.
	in := New(Plan{Seed: 7, TransientRepeats: 2, Ranges: []RangeFault{
		{Lo: 0, Hi: 4096, Class: Transient, Reads: true},
		{Lo: 8192, Hi: 12288, Class: Transient, Reads: true, Repeats: 5},
	}})
	for i := 0; i < 2; i++ {
		if f := in.Inject(blockdev.OpRead, 0, 4096); f.Err == nil {
			t.Fatalf("plan-budget site attempt %d: want fault", i)
		}
	}
	if f := in.Inject(blockdev.OpRead, 0, 4096); f.Err != nil {
		t.Fatalf("plan-budget site did not clear after 2 attempts: %v", f.Err)
	}
	for i := 0; i < 5; i++ {
		if f := in.Inject(blockdev.OpRead, 8192, 4096); f.Err == nil {
			t.Fatalf("override site attempt %d: want fault", i)
		}
	}
	if f := in.Inject(blockdev.OpRead, 8192, 4096); f.Err != nil {
		t.Fatalf("override site did not clear after 5 attempts: %v", f.Err)
	}
}

func TestPersistentNeverClears(t *testing.T) {
	in := New(Plan{Seed: 7,
		Ranges: []RangeFault{{Lo: 8192, Hi: 12288, Class: Persistent, Reads: true, Writes: true}}})
	for i := 0; i < 10; i++ {
		f := in.Inject(blockdev.OpRead, 8192, 4096)
		if f.Err == nil {
			t.Fatalf("attempt %d: persistent fault cleared", i)
		}
		if blockdev.IsTransient(f.Err) {
			t.Fatalf("attempt %d: persistent fault claims transient", i)
		}
	}
	// Outside the range: clean.
	if f := in.Inject(blockdev.OpRead, 12288, 4096); f.Err != nil {
		t.Fatalf("offset outside range faulted: %v", f.Err)
	}
}

// A range fails every request that overlaps it, not only those that start
// inside it: a merged command reading [0, 8KB) over a dead [4KB, 8KB)
// must fail, and one that ends where the range begins must not.
func TestRangeFailsOverlappingRequest(t *testing.T) {
	in := New(Plan{Seed: 7,
		Ranges: []RangeFault{{Lo: 4096, Hi: 8192, Class: Persistent, Reads: true}}})
	f := in.Inject(blockdev.OpRead, 0, 8192)
	if f.Err == nil {
		t.Fatal("a read of [0, 8KB) over the range [4KB, 8KB) succeeded")
	}
	var e *Error
	if !errors.As(f.Err, &e) || e.Off != 0 || e.Bytes != 8192 {
		t.Fatalf("fault %v: want the whole request [0, 8KB)", f.Err)
	}
	if f := in.Inject(blockdev.OpRead, 0, 4096); f.Err != nil {
		t.Fatalf("a read of [0, 4KB), which ends where the range begins, faulted: %v", f.Err)
	}
	if f := in.Inject(blockdev.OpRead, 8192, 4096); f.Err != nil {
		t.Fatalf("a read of [8KB, 12KB), past the range, faulted: %v", f.Err)
	}
}

func TestRangeDirectionTargeting(t *testing.T) {
	in := New(Plan{Seed: 1,
		Ranges: []RangeFault{{Lo: 0, Hi: 1 << 20, Class: Persistent, Writes: true}}})
	if f := in.Inject(blockdev.OpRead, 0, 4096); f.Err != nil {
		t.Fatalf("write-only range faulted a read: %v", f.Err)
	}
	if f := in.Inject(blockdev.OpWrite, 0, 4096); f.Err == nil {
		t.Fatal("write-only range passed a write")
	}
}

func TestErrorTaxonomy(t *testing.T) {
	in := New(Plan{Seed: 1,
		Ranges: []RangeFault{{Lo: 0, Hi: 4096, Class: Transient, Reads: true}}})
	f := in.Inject(blockdev.OpRead, 0, 4096)
	if f.Err == nil {
		t.Fatal("no fault injected")
	}
	if !errors.Is(f.Err, blockdev.ErrInjected) {
		t.Fatalf("injected fault does not unwrap to ErrInjected: %v", f.Err)
	}
	var fe *Error
	if !errors.As(f.Err, &fe) || fe.Off != 0 || fe.Op != blockdev.OpRead {
		t.Fatalf("fault detail lost: %v", f.Err)
	}
}

func TestMaxFaultsCap(t *testing.T) {
	in := New(Plan{Seed: 3, ReadFailProb: 1, MaxFaults: 5})
	faults := 0
	for i := int64(0); i < 100; i++ {
		if in.Inject(blockdev.OpRead, i*4096, 4096).Err != nil {
			faults++
		}
	}
	if faults != 5 {
		t.Fatalf("MaxFaults=5 but injected %d", faults)
	}
}

// TestDeviceIntegration drives a real Device through the injector: a
// failed blocking read must not move bytes or occupy the device, a
// stalled read must take longer, and both must land in device stats.
func TestDeviceIntegration(t *testing.T) {
	d := blockdev.New(blockdev.NVMeConfig())
	in := New(Plan{Seed: 1, TransientRepeats: 1,
		Ranges: []RangeFault{{Lo: 0, Hi: 4096, Class: Transient, Reads: true}},
		Stall:  simtime.Millisecond})
	d.SetFaultInjector(in)
	tl := simtime.NewTimeline(0)

	err := d.Access(tl, blockdev.OpRead, 0, 4096)
	if !errors.Is(err, blockdev.ErrInjected) || !blockdev.IsTransient(err) {
		t.Fatalf("want transient injected error, got %v", err)
	}
	if st := d.Stats(); st.ReadOps != 0 || st.ReadBytes != 0 {
		t.Fatalf("failed read was accounted as served: %+v", st)
	}
	if st := d.Stats(); st.InjectedFaults != 1 {
		t.Fatalf("InjectedFaults = %d, want 1", st.InjectedFaults)
	}

	// Retry clears (TransientRepeats=1): same site now succeeds.
	if err := d.Access(tl, blockdev.OpRead, 0, 4096); err != nil {
		t.Fatalf("retry after transient clear failed: %v", err)
	}
	if st := d.Stats(); st.ReadOps != 1 {
		t.Fatalf("cleared retry not accounted: %+v", st)
	}

	// Async path: fault reported, completion = submit + stall, no bytes.
	in2 := New(Plan{Seed: 1, TransientRepeats: 1, StallProb: 1, Stall: simtime.Millisecond,
		Ranges: []RangeFault{{Lo: 0, Hi: 4096, Class: Persistent, Reads: true}}})
	d2 := blockdev.New(blockdev.NVMeConfig())
	d2.SetFaultInjector(in2)
	done, err := d2.AccessAsync(simtime.Time(0), blockdev.OpRead, 0, 4096)
	if err == nil || blockdev.IsTransient(err) {
		t.Fatalf("want persistent fault from async path, got %v", err)
	}
	if done != simtime.Time(simtime.Millisecond) {
		t.Fatalf("failed async completion %v, want submit+stall", done)
	}
	if st := d2.Stats(); st.ReadOps != 0 || st.InjectedStall != simtime.Millisecond {
		t.Fatalf("async fault accounting: %+v", st)
	}
}

// TestStallSlowsSuccess: a stall on a surviving request delays its
// completion by exactly the configured spike.
func TestStallSlowsSuccess(t *testing.T) {
	base := blockdev.New(blockdev.NVMeConfig())
	tl := simtime.NewTimeline(0)
	if err := base.Access(tl, blockdev.OpRead, 0, 4096); err != nil {
		t.Fatal(err)
	}
	clean := tl.Elapsed()

	d := blockdev.New(blockdev.NVMeConfig())
	d.SetFaultInjector(New(Plan{Seed: 1, StallProb: 1, Stall: 3 * simtime.Millisecond}))
	tl2 := simtime.NewTimeline(0)
	if err := d.Access(tl2, blockdev.OpRead, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if got, want := tl2.Elapsed(), clean+3*simtime.Millisecond; got != want {
		t.Fatalf("stalled read took %v, want %v", got, want)
	}
}
