package blockdev

import (
	"sync"
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func testLanes(qd int, rec *telemetry.Recorder) (*Device, *LaneSet) {
	d := New(testConfig())
	d.SetTelemetry(rec)
	return d, WrapDevice(d).NewLaneSet(LaneConfig{Plug: PlugConfig{QueueDepth: qd}}, rec)
}

// TestLaneDispatchResolvesEverything: every staged request gets exactly
// one result, bytes are preserved, and cross-tenant adjacent work merges
// in the shared plug.
func TestLaneDispatchResolvesEverything(t *testing.T) {
	d, ls := testLanes(0, nil)
	// Tenant 0 and tenant 1 stage device-adjacent halves of one extent.
	ls.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: 0, Bytes: 4096, Tag: "a"}, 0)
	ls.Stage(LaneRequest{Tenant: 1, Op: OpRead, Off: 4096, Bytes: 4096, Tag: "b"}, 0)
	ls.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: 1 << 30, Bytes: 4096, Tag: "c"}, 0)
	res := ls.Dispatch(0, nil)
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	seen := map[any]bool{}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("request %v failed: %v", r.Req.Tag, r.Err)
		}
		if r.Done == 0 {
			t.Fatalf("request %v has zero completion time", r.Req.Tag)
		}
		seen[r.Req.Tag] = true
	}
	if !seen["a"] || !seen["b"] || !seen["c"] {
		t.Fatalf("missing results: %v", seen)
	}
	st := d.Stats()
	if st.ReadBytes != 3*4096 {
		t.Fatalf("device read %d bytes, want %d", st.ReadBytes, 3*4096)
	}
	// The adjacent pair from different tenants merged into one command.
	if st.ReadOps != 2 || st.MergedSegments != 1 {
		t.Fatalf("ReadOps=%d MergedSegments=%d, want 2/1 (cross-tenant merge)",
			st.ReadOps, st.MergedSegments)
	}
	lst := ls.Stats()
	if lst.Batches != 1 || lst.Commands != 2 || lst.Staged != 0 {
		t.Fatalf("lane stats %+v, want 1 batch / 2 commands / 0 staged", lst)
	}
}

// TestLaneDRRInterleavesTenants: with equal quanta, a drain alternates
// tenants rather than serving one lane to exhaustion, so a backlogged
// tenant cannot push another's first request behind its whole queue.
func TestLaneDRRInterleavesTenants(t *testing.T) {
	_, ls := testLanes(0, nil)
	// Tenant 0 stages 8 quantum-sized requests first, tenant 1 stages one.
	q := int64(DefaultLaneQuantum)
	for i := 0; i < 8; i++ {
		ls.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: int64(i) << 30, Bytes: q, Tag: i}, 0)
	}
	ls.Stage(LaneRequest{Tenant: 1, Op: OpRead, Off: 100 << 30, Bytes: q, Tag: "t1"}, 0)
	batch := ls.drain()
	if len(batch) != 9 {
		t.Fatalf("drained %d, want 9", len(batch))
	}
	pos := -1
	for i, e := range batch {
		if e.req.Tenant == 1 {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("tenant 1's only request drained at position %d, want near the front", pos)
	}
}

// TestLaneQuantumProportionality: a tenant staging requests twice the
// size earns service no more often per round; byte service stays roughly
// proportional to the quantum, not to request count.
func TestLaneQuantumProportionality(t *testing.T) {
	_, ls := testLanes(0, nil)
	q := int64(DefaultLaneQuantum)
	// Tenant 0: many small; tenant 1: few large (2 quanta each).
	for i := 0; i < 16; i++ {
		ls.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: int64(i) << 30, Bytes: q / 4, Tag: i}, 0)
	}
	for i := 0; i < 4; i++ {
		ls.Stage(LaneRequest{Tenant: 1, Op: OpRead, Off: int64(100+i) << 30, Bytes: 2 * q, Tag: i}, 0)
	}
	batch := ls.drain()
	// Count bytes served per tenant within the first half of the drain
	// order: proportional service means neither tenant dominates early.
	var b0, b1 int64
	for _, e := range batch[:len(batch)/2] {
		if e.req.Tenant == 0 {
			b0 += e.req.Bytes
		} else {
			b1 += e.req.Bytes
		}
	}
	if b0 == 0 || b1 == 0 {
		t.Fatalf("first half served bytes t0=%d t1=%d, want both nonzero", b0, b1)
	}
	if b0 > 3*b1 || b1 > 3*b0 {
		t.Fatalf("first-half service skewed: t0=%d t1=%d bytes", b0, b1)
	}
}

// TestLaneTransientRetryAndPersistentError: transient command faults are
// re-staged with backoff and eventually succeed or exhaust the budget;
// persistent faults surface as terminal errors without retry.
func TestLaneTransientRetryAndPersistentError(t *testing.T) {
	d := New(testConfig())
	inj := &countingInjector{failFirst: 2, off: 0}
	d.SetFaultInjector(inj)
	ls := WrapDevice(d).NewLaneSet(LaneConfig{
		Retry: RetryPolicy{Max: 3, Base: 10 * simtime.Microsecond, Cap: simtime.Millisecond},
	}, nil)
	ls.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: 0, Bytes: 4096, Tag: "flaky"}, 0)
	res := ls.Dispatch(0, nil)
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("transient request should retry to success, got %+v", res)
	}
	if inj.calls < 3 {
		t.Fatalf("injector consulted %d times, want >= 3 (2 failures + success)", inj.calls)
	}

	d2 := New(testConfig())
	d2.SetFaultInjector(&stubInjector{fail: map[int64]bool{0: true}})
	ls2 := WrapDevice(d2).NewLaneSet(LaneConfig{Retry: RetryPolicy{Max: 3, Base: simtime.Microsecond}}, nil)
	ls2.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: 0, Bytes: 4096, Tag: "dead"}, 0)
	ls2.Stage(LaneRequest{Tenant: 1, Op: OpRead, Off: 1 << 30, Bytes: 4096, Tag: "ok"}, 0)
	res2 := ls2.Dispatch(0, nil)
	if len(res2) != 2 {
		t.Fatalf("got %d results, want 2", len(res2))
	}
	for _, r := range res2 {
		switch r.Req.Tag {
		case "dead":
			if r.Err == nil {
				t.Fatal("persistent fault should surface as an error")
			}
		case "ok":
			if r.Err != nil {
				t.Fatalf("healthy request failed: %v", r.Err)
			}
		}
	}
}

// TestLaneConcurrentStageDispatch: concurrent submitters staging while
// dispatches run must neither lose nor duplicate requests.
func TestLaneConcurrentStageDispatch(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	_, ls := testLanes(0, rec)
	const tenants, each = 8, 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	got := map[any]int{}
	for tn := 0; tn < tenants; tn++ {
		tn := tn
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tag := tn*1000 + i
				ls.Stage(LaneRequest{
					Tenant: tn, Op: OpRead,
					Off: int64(tag) << 16, Bytes: 4096, Tag: tag,
				}, simtime.Time(i)*simtime.Time(simtime.Microsecond))
				res := ls.Dispatch(0, nil)
				mu.Lock()
				for _, r := range res {
					if r.Err != nil {
						t.Errorf("request %v failed: %v", r.Req.Tag, r.Err)
					}
					got[r.Req.Tag]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// A final dispatch sweeps anything a racing round left staged.
	for _, r := range ls.Dispatch(0, nil) {
		got[r.Req.Tag]++
	}
	if len(got) != tenants*each {
		t.Fatalf("resolved %d distinct requests, want %d", len(got), tenants*each)
	}
	for tag, n := range got {
		if n != 1 {
			t.Fatalf("request %v resolved %d times", tag, n)
		}
	}
	if st := ls.Stats(); st.Staged != 0 {
		t.Fatalf("%d requests still staged after final dispatch", st.Staged)
	}
	if sub := rec.CounterValue(telemetry.CtrRingDispatchCommands); sub == 0 {
		t.Fatal("dispatch commands counter not fed")
	}
}

// transientErr is an injectable error classified as retryable.
type transientErr struct{}

func (transientErr) Error() string   { return "lanes test: transient fault" }
func (transientErr) Transient() bool { return true }

// countingInjector fails the first failFirst requests at off transiently.
type countingInjector struct {
	mu        sync.Mutex
	failFirst int
	off       int64
	calls     int
}

func (c *countingInjector) Inject(op Op, off, bytes int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if off != c.off {
		return nil
	}
	c.calls++
	if c.calls <= c.failFirst {
		return transientErr{}
	}
	return nil
}

// TestLaneDRRNoBankingAcrossIdle: a lane emptied mid-round forfeits its
// leftover deficit (the anti-banking rule). Before the fix, drain only
// zeroed the deficit when the rotation visited an already-empty lane, so
// the lane drained empty last each round kept up to a quantum of credit
// across idle periods and jumped the queue when it refilled.
func TestLaneDRRNoBankingAcrossIdle(t *testing.T) {
	_, ls := testLanes(0, nil)
	const kb = 1 << 10

	// Round 1: both tenants exist; each drains an exact quantum so no
	// deficit is left over regardless of the rule.
	ls.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: 0, Bytes: 256 * kb}, 0)
	ls.Stage(LaneRequest{Tenant: 1, Op: OpRead, Off: 1 << 20, Bytes: 256 * kb}, 0)
	ls.drain()

	// Round 2: tenant 0 alone drains one tiny request; its lane empties
	// mid-round with ~252KB of quantum unspent.
	ls.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: 2 << 20, Bytes: 4 * kb}, 0)
	ls.drain()
	ls.mu.Lock()
	banked := ls.lanes[0].deficit
	ls.mu.Unlock()
	if banked != 0 {
		t.Fatalf("lane 0 banked %d bytes of deficit across an idle period, want 0", banked)
	}

	// Round 3: both tenants stage four 128KB requests. Fair DRR serves
	// alternating pairs (one 256KB quantum = two requests); banked
	// deficit would let tenant 0 release three in its first turn.
	for i := int64(0); i < 4; i++ {
		ls.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: (4 + i) << 20, Bytes: 128 * kb}, 0)
		ls.Stage(LaneRequest{Tenant: 1, Op: OpRead, Off: (16 + i) << 20, Bytes: 128 * kb}, 0)
	}
	run, prev := 0, -1
	for _, e := range ls.drain() {
		if e.req.Tenant == prev {
			run++
		} else {
			run, prev = 1, e.req.Tenant
		}
		if run > 2 {
			t.Fatalf("tenant %d released %d consecutive requests; one quantum covers 2", prev, run)
		}
	}
}

// TestLaneStageDispatchZeroAlloc: once the lanes, the drain batch, the plug
// and the caller's result buffer have grown to the working set, a
// Stage/Dispatch round allocates nothing — a lane pops by head index and
// rewinds instead of reslicing its queue away, and drain refills one batch.
func TestLaneStageDispatchZeroAlloc(t *testing.T) {
	_, ls := testLanes(0, nil)
	tag := new(int) // a pointer tag, as the ring's: boxing one allocates nothing
	var res []LaneResult
	var at simtime.Time
	round := func() {
		for i := int64(0); i < 6; i++ {
			ls.Stage(LaneRequest{Tenant: int(i % 3), Op: OpRead, Off: i << 30, Bytes: 16 << 10, Tag: tag}, at)
		}
		res = ls.Dispatch(at, res[:0])
		if len(res) != 6 {
			t.Fatalf("resolved %d of 6 staged requests", len(res))
		}
		at = res[len(res)-1].Done
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("steady-state Stage/Dispatch round: %v allocs/run, want 0", n)
	}
}

// TestLaneSlotsZeroedOnPop is the recycle audit for what the lanes reuse: a
// dispatched request's tag stays reachable from neither its lane's queue
// (whose buffer is rewound, not dropped) nor the drain batch, and a reused
// slot hands the next request nothing of the last — not its retry count, not
// its stage time.
func TestLaneSlotsZeroedOnPop(t *testing.T) {
	inj := &countingInjector{failFirst: 2, off: 0}
	d := New(testConfig())
	d.SetFaultInjector(inj)
	ls := WrapDevice(d).NewLaneSet(LaneConfig{Retry: RetryPolicy{Max: 3, Base: simtime.Microsecond}}, nil)
	// The first request is retried twice, so its slots carry attempt counts
	// and backoff stage times; the others ride along on a second lane.
	ls.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: 0, Bytes: 4096, Tag: "retried"}, 5)
	for i := int64(1); i <= 3; i++ {
		ls.Stage(LaneRequest{Tenant: 1, Op: OpRead, Off: i << 30, Bytes: 4096, Tag: "other"}, 7)
	}
	if res := ls.Dispatch(0, nil); len(res) != 4 {
		t.Fatalf("resolved %d of 4 staged requests", len(res))
	}
	for id, ln := range ls.lanes {
		if len(ln.q) != 0 || ln.head != 0 {
			t.Fatalf("lane %d not rewound after a full drain: len %d head %d", id, len(ln.q), ln.head)
		}
		for i, e := range ln.q[:cap(ln.q)] {
			if e != (laneEntry{}) {
				t.Errorf("lane %d slot %d keeps %+v after its pop", id, i, e)
			}
		}
	}
	for i, e := range ls.batch[:cap(ls.batch)] {
		if e != (laneEntry{}) {
			t.Errorf("drain batch slot %d keeps %+v after the dispatch", i, e)
		}
	}

	// Reused slots: a request that fails persistently on them must burn its
	// own retry budget from zero, as on a fresh lane set.
	inj.mu.Lock()
	inj.failFirst, inj.calls = 1<<30, 0
	inj.mu.Unlock()
	ls.Stage(LaneRequest{Tenant: 0, Op: OpRead, Off: 0, Bytes: 4096, Tag: "dead"}, 0)
	res := ls.Dispatch(0, nil)
	if len(res) != 1 || res[0].Err == nil {
		t.Fatalf("persistently failing request resolved as %+v", res)
	}
	if inj.calls != 4 {
		t.Errorf("request on a reused slot was tried %d times, want 1 + Retry.Max = 4", inj.calls)
	}
}
