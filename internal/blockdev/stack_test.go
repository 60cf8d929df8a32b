package blockdev

import (
	"errors"
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func testStripeConfig(width int) StackConfig {
	return StackConfig{
		Local:      testConfig(),
		Width:      width,
		ChunkBytes: 64 << 10,
	}
}

// A request straddling a stripe-chunk boundary must split into exactly
// one piece per member, with the member byte totals partitioning the
// request and the stack aggregate matching their sum.
func TestStackChunkStraddlePartition(t *testing.T) {
	st := NewStack(testStripeConfig(2))
	tl := simtime.NewTimeline(0)
	// [60KB, 68KB): last 4KB of chunk 0 (member 0) + first 4KB of
	// chunk 1 (member 1).
	if err := st.Access(tl, OpRead, 60<<10, 8<<10); err != nil {
		t.Fatal(err)
	}
	ms := st.MemberStats()
	if ms[0].ReadOps != 1 || ms[0].ReadBytes != 4<<10 {
		t.Fatalf("member 0 stats = %+v, want 1 op / 4KB", ms[0])
	}
	if ms[1].ReadOps != 1 || ms[1].ReadBytes != 4<<10 {
		t.Fatalf("member 1 stats = %+v, want 1 op / 4KB", ms[1])
	}
	agg := st.Stats()
	if agg.ReadOps != 2 || agg.ReadBytes != 8<<10 {
		t.Fatalf("stack aggregate = %+v, want 2 ops / 8KB", agg)
	}
	if agg.Name != "stack(test.0+test.1)" {
		t.Fatalf("stack name = %q", agg.Name)
	}
}

// Consecutive stripe chunks that land on the same member map to
// device-adjacent offsets (the contiguity-preserving layout), so a
// multi-chunk read re-merges into ONE command per member in that
// member's plug queue, and the members run their halves in parallel: a
// plugged width-2 read of 2N bytes finishes in exactly the time a raw
// device needs for a single N-byte command.
func TestStackStripeCoalesceAndParallelism(t *testing.T) {
	st := NewStack(testStripeConfig(2))
	p := st.NewPlug(PlugConfig{})
	tl := simtime.NewTimeline(0)
	// 256KB = chunks 0..3: chunks 0,2 -> member 0 at offsets 0,64KB
	// (device-contiguous), chunks 1,3 -> member 1 likewise.
	p.Add(OpRead, 0, 256<<10, 0)
	if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if got := p.DispatchedCommands(); got != 2 {
		t.Fatalf("dispatched %d commands, want 2 (one merged per member)", got)
	}
	for i, m := range st.MemberStats() {
		if m.PlugCommands != 1 || m.PlugSegments != 2 || m.ReadBytes != 128<<10 {
			t.Fatalf("member %d = %+v, want 2 segments merged into 1 command / 128KB", i, m)
		}
	}
	raw := New(testConfig())
	rtl := simtime.NewTimeline(0)
	if err := raw.Access(rtl, OpRead, 0, 128<<10); err != nil {
		t.Fatal(err)
	}
	if tl.Elapsed() != rtl.Elapsed() {
		t.Fatalf("width-2 256KB took %v, want raw-device 128KB time %v",
			tl.Elapsed(), rtl.Elapsed())
	}
}

// A width-1 stack must be byte- and timing-identical to the raw device for the same request
// sequence.
func TestStackWidthOneIdenticalToRawDevice(t *testing.T) {
	raw := New(testConfig())
	one := NewStack(StackConfig{Local: testConfig(), Width: 1})

	type step struct {
		op    Op
		off   int64
		bytes int64
	}
	steps := []step{
		{OpRead, 0, 1 << 20},
		{OpWrite, 256 << 10, 64 << 10},
		{OpRead, 60 << 10, 8 << 10}, // would straddle a chunk at width > 1
		{OpRead, 1 << 20, 4 << 10},
	}
	rtl := simtime.NewTimeline(0)
	otl := simtime.NewTimeline(0)
	for i, s := range steps {
		if err := raw.Access(rtl, s.op, s.off, s.bytes); err != nil {
			t.Fatal(err)
		}
		if err := one.Access(otl, s.op, s.off, s.bytes); err != nil {
			t.Fatal(err)
		}
		if otl.Elapsed() != rtl.Elapsed() {
			t.Fatalf("step %d: elapsed raw=%v stack=%v", i, rtl.Elapsed(), otl.Elapsed())
		}
	}
	// Async path too: identical admission and completion.
	rd, rerr := raw.AccessAsync(rtl.Now(), OpRead, 0, 512<<10)
	od, oerr := one.AccessAsync(otl.Now(), OpRead, 0, 512<<10)
	if rerr != nil || oerr != nil {
		t.Fatal(rerr, oerr)
	}
	if od != rd {
		t.Fatalf("async done: raw=%v stack=%v", rd, od)
	}
	if rs, os := raw.Stats(), one.Stats(); os != rs {
		t.Fatalf("stats diverge:\nraw   %+v\nstack %+v", rs, os)
	}
}

// A fault on one member must fail the whole stack request before ANY
// member books bytes: all-or-nothing, so a partially-served stripe can
// never land in (and poison) the page cache. After the fault clears,
// the same request must succeed with only the clean attempt accounted.
func TestStackSingleMemberFaultAllOrNothing(t *testing.T) {
	st := NewStack(testStripeConfig(2))
	tl := simtime.NewTimeline(0)
	// Fail member 1's piece ([0,64KB) of the member device); member 0 is
	// healthy and resolves first in piece order.
	st.Member(1).SetFaultInjector(&stubInjector{fail: map[int64]bool{0: true}})

	if err := st.Access(tl, OpRead, 0, 128<<10); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	ms := st.MemberStats()
	if ms[0].ReadOps != 0 || ms[0].ReadBytes != 0 {
		t.Fatalf("healthy member booked bytes on a failed stack request: %+v", ms[0])
	}
	if ms[1].ReadOps != 0 || ms[1].InjectedFaults != 1 {
		t.Fatalf("faulted member accounting = %+v", ms[1])
	}

	// Async submission takes the same pre-flight.
	if _, err := st.AccessAsync(tl.Now(), OpRead, 0, 128<<10); !errors.Is(err, ErrInjected) {
		t.Fatalf("async err = %v, want ErrInjected", err)
	}
	if ms := st.MemberStats(); ms[0].ReadOps != 0 || ms[1].ReadOps != 0 {
		t.Fatalf("async fault booked bytes: %+v", ms)
	}

	// Clear the fault: the retry serves every byte, and the totals show
	// only the clean attempt.
	st.Member(1).SetFaultInjector(nil)
	if err := st.Access(tl, OpRead, 0, 128<<10); err != nil {
		t.Fatal(err)
	}
	ms = st.MemberStats()
	if ms[0].ReadBytes != 64<<10 || ms[1].ReadBytes != 64<<10 {
		t.Fatalf("post-retry member bytes = %d/%d, want 64KB each",
			ms[0].ReadBytes, ms[1].ReadBytes)
	}
	if agg := st.Stats(); agg.ReadBytes != 128<<10 || agg.InjectedFaults != 2 {
		t.Fatalf("post-retry aggregate = %+v", agg)
	}
}

// BacklogFor must report only the backends a request would actually
// dispatch to: a saturated remote tier must not register as congestion
// for local-resident ranges (the per-backend signal the vfs prefetch
// admission relies on; Backlog is the stack-wide worst case).
func TestStackBacklogForIsolatesSaturatedMember(t *testing.T) {
	st := NewStack(StackConfig{
		Local: testConfig(),
		Width: 1,
		Tier: TierConfig{
			Enabled:    true,
			Remote:     RemoteNVMeConfig(),
			RemoteFrac: 0.5,
		},
	})
	// Residency hash: extent 0 -> remote, extent 1 -> local.
	extB := int64(ExtentSize)
	if st.PrefetchBoostFor(0, 4096) != 1 {
		t.Fatal("boost should be 1 with CrossTierPrefetch disabled")
	}

	// Saturate the remote member with a large direct reservation.
	remote := st.Member(st.NumMembers() - 1)
	if _, err := remote.AccessAsync(0, OpRead, 0, 1<<30); err != nil {
		t.Fatal(err)
	}
	if st.Backlog(0) == 0 {
		t.Fatal("stack-wide backlog should see the saturated remote")
	}
	if b := st.BacklogFor(0, extB, 4096); b != 0 {
		t.Fatalf("local-resident range inherited remote backlog: %v", b)
	}
	if b := st.BacklogFor(0, 0, 4096); b == 0 {
		t.Fatal("remote-resident range should see the remote backlog")
	}
}

// The per-backend telemetry families must partition the stack totals
// exactly: summing command and byte counters across backends yields the
// same numbers as the stack's aggregate device stats.
func TestStackBackendTelemetryPartition(t *testing.T) {
	st := NewStack(testStripeConfig(2))
	rec := telemetry.NewRecorder(0)
	st.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	for i := int64(0); i < 8; i++ {
		if err := st.Access(tl, OpRead, i*96<<10, 96<<10); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Access(tl, OpWrite, 0, 128<<10); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap.Backends) != 2 {
		t.Fatalf("backends = %d, want 2", len(snap.Backends))
	}
	var cmds, rb, wb int64
	for _, b := range snap.Backends {
		cmds += b.Commands
		rb += b.ReadBytes
		wb += b.WriteBytes
	}
	agg := st.Stats()
	if got := agg.ReadOps + agg.WriteOps; cmds != got {
		t.Fatalf("backend commands %d != stack ops %d", cmds, got)
	}
	if rb != agg.ReadBytes || wb != agg.WriteBytes {
		t.Fatalf("backend bytes %d/%d != stack bytes %d/%d",
			rb, wb, agg.ReadBytes, agg.WriteBytes)
	}
}

// A plug is pooled and Reset between requests, and the async-prefetch
// horizon of one request must not survive the Reset. On a single-member
// stack it used to: a request of many small chunks runs its horizon ahead
// of the backlog the device reports (the ledger's span ring forgets old
// reservations), so a recycled plug refused as congested a chunk that a
// fresh plug admits, and virtual time depended on the pool's — that is,
// the garbage collector's — behaviour.
func TestStackPlugResetClearsAsyncHorizon(t *testing.T) {
	st := NewStack(testStripeConfig(1))
	// Deep enough that every command submits at once: depth gating would
	// spread the submissions out and keep the backlog reading current.
	p := st.NewPlug(PlugConfig{QueueDepth: 1024})
	var at simtime.Time
	p.MarkPrefetch(true)
	for i := int64(0); i < 400; i++ {
		p.Add(OpRead, i*8192, 4096, i) // disjoint: no merging
	}
	p.FlushAsync(at, 0)
	for i, rq := range p.Requests() {
		if !rq.Issued {
			t.Fatalf("request %d not issued: %+v", i, rq)
		}
	}
	backlog, horizon := st.Member(0).Backlog(at), p.mem[0].horizon.Sub(at)
	if horizon <= backlog {
		t.Fatalf("horizon %v not ahead of the reported backlog %v: the test needs another way to separate them", horizon, backlog)
	}
	limit := (backlog + horizon) / 2
	tl := simtime.NewTimeline(at)
	if rq, _ := readThrough(st.NewPlug(PlugConfig{}), tl, true, 1<<30, 4096, limit); rq.Congested {
		t.Fatal("a fresh plug refused the chunk")
	}
	if rq, _ := readThrough(p, tl, true, 1<<30+8192, 4096, limit); rq.Congested {
		t.Error("a reset plug refused a chunk a fresh plug admits: the previous request's horizon survived Reset")
	}
}

// A read fills only free local capacity (DESIGN.md §16): with the tier at
// its cap, a streaming run of prefetch reads over remote extents and then
// enough demand reads to heat one of them past promoteHeat leave residency
// alone — nothing is promoted and no fill write reaches a local member —
// while an uncapped tier still takes every prefetched extent and a tier
// with room still takes the demand-heated one.
func TestPrefetchPromotionNeverForcesDemotion(t *testing.T) {
	const (
		ext     = ExtentSize
		extents = 64
	)
	tiered := func(localCap int64) *Stack {
		cfg := testStripeConfig(2)
		cfg.Tier = TierConfig{Enabled: true, Remote: testConfig(),
			RemoteFrac: 0.5, CrossTierPrefetch: true, LocalCapBytes: localCap}
		st := NewStack(cfg)
		st.BacklogFor(0, 0, extents*ext) // first touch: every extent takes its residency
		return st
	}
	// stream prefetch-reads every remote extent front to back and returns
	// the last one; it reports how many it read.
	stream := func(st *Stack) (remote int64, last int64) {
		p := st.NewPlug(PlugConfig{})
		tl := simtime.NewTimeline(0)
		for _, h := range st.TierStats(0).Heat {
			if h.Local {
				continue
			}
			if rq, err := readThrough(p, tl, true, h.Extent*ext, ext, simtime.Second); rq.Congested || err != nil {
				t.Fatalf("prefetch read of extent %d: congested=%v err=%v", h.Extent, rq.Congested, err)
			}
			remote++
			last = max(last, h.Extent)
		}
		return remote, last
	}
	// heat demand-reads extent e promoteHeat times.
	heat := func(st *Stack, e int64) {
		tl := simtime.NewTimeline(0)
		for i := 0; i < promoteHeat; i++ {
			if _, err := readThrough(st.NewPlug(PlugConfig{}), tl, false, e*ext, ext, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	localWrites := func(st *Stack) (n int64) {
		for _, m := range st.MemberStats()[:st.Width()] {
			n += m.WriteOps
		}
		return n
	}

	uncapped := tiered(0)
	local := uncapped.TierStats(0).LocalExtents
	remote, _ := stream(uncapped)
	if remote == 0 || local == 0 {
		t.Fatalf("setup: %d local and %d remote extents, want both", local, remote)
	}
	if ts := uncapped.TierStats(0); ts.PrefetchPromotions != remote || ts.RemoteExtents != 0 {
		t.Errorf("uncapped: %d prefetch promotions, %d extents left remote; want all %d promoted", ts.PrefetchPromotions, ts.RemoteExtents, remote)
	}

	// Capped at exactly what is local: the tier sits at its cap.
	capped := tiered(local * ext)
	_, hot := stream(capped)
	heat(capped, hot)
	if ts := capped.TierStats(0); ts.Promotions != 0 || ts.LocalExtents != local {
		t.Errorf("at the cap, after prefetch reads and %d demand reads of extent %d: %d promotions, %d local extents; want 0, %d",
			promoteHeat, hot, ts.Promotions, ts.LocalExtents, local)
	}
	if n := localWrites(capped); n != 0 {
		t.Errorf("at the cap: %d fill writes booked on the local members, want 0", n)
	}

	// One extent of room: the demand-heated extent lands in it.
	roomy := tiered((local + 1) * ext)
	heat(roomy, hot)
	if ts := roomy.TierStats(0); ts.Promotions != 1 || ts.PrefetchPromotions != 0 {
		t.Errorf("under the cap, after %d demand reads of extent %d: %d promotions (%d by prefetch); want 1 (0)",
			promoteHeat, hot, ts.Promotions, ts.PrefetchPromotions)
	}
	if localWrites(roomy) == 0 {
		t.Error("the demand promotion booked no fill write on a local member")
	}
}
