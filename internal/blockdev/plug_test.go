package blockdev

import (
	"reflect"
	"testing"

	"repro/internal/simtime"
)

// testPlug returns a plug over a fresh test device, with optional
// queue-depth/merge-window overrides.
func testPlug(qd int, window int64) (*Device, *StackPlug) {
	d := New(testConfig())
	return d, WrapDevice(d).NewPlug(PlugConfig{QueueDepth: qd, MergeWindowBytes: window})
}

// readThrough dispatches one read of [off, off+bytes) through p, reset
// first: a demand read unplugs with FlushSync on tl, a prefetch is marked
// and unplugs with FlushAsync at tl's time under limit. It returns the
// read's request result and, for a demand read, the flush error.
func readThrough(p *StackPlug, tl *simtime.Timeline, prefetch bool, off, bytes int64, limit simtime.Duration) (Request, error) {
	p.Reset()
	p.MarkPrefetch(prefetch)
	p.Add(OpRead, off, bytes, 0)
	if !prefetch {
		err := p.FlushSync(tl, RetryPolicy{})
		return p.Requests()[0], err
	}
	p.FlushAsync(tl.Now(), limit)
	rq := p.Requests()[0]
	return rq, rq.Err
}

func TestPlugBackMergeAdjacent(t *testing.T) {
	d, p := testPlug(0, 0)
	tl := simtime.NewTimeline(0)
	// Three device-adjacent chunks plus one disjoint: 4 segments, 2 commands.
	p.Add(OpRead, 0, 4096, 0)
	p.Add(OpRead, 4096, 4096, 1)
	p.Add(OpRead, 8192, 4096, 2)
	p.Add(OpRead, 1<<30, 4096, 100)
	if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.ReadOps != 2 {
		t.Fatalf("ReadOps = %d, want 2 merged commands", st.ReadOps)
	}
	if st.ReadBytes != 4*4096 {
		t.Fatalf("ReadBytes = %d, want %d (merging preserves bytes)", st.ReadBytes, 4*4096)
	}
	if st.PlugSegments != 4 || st.PlugCommands != 2 || st.MergedSegments != 2 {
		t.Fatalf("plug counters = %d/%d/%d, want 4/2/2",
			st.PlugSegments, st.PlugCommands, st.MergedSegments)
	}
	segs := p.Segments()
	if segs[0].Cmd != segs[1].Cmd || segs[1].Cmd != segs[2].Cmd {
		t.Fatalf("adjacent segments not merged: cmds %d/%d/%d",
			segs[0].Cmd, segs[1].Cmd, segs[2].Cmd)
	}
	if segs[3].Cmd == segs[0].Cmd {
		t.Fatal("disjoint segment merged")
	}
	for i, s := range segs {
		if !s.Issued || s.Err != nil {
			t.Fatalf("segment %d not issued cleanly: %+v", i, s)
		}
	}
	// Merged segments complete together, as one command.
	if segs[0].Done != segs[2].Done {
		t.Fatalf("merged segments complete apart: %v vs %v", segs[0].Done, segs[2].Done)
	}
}

func TestPlugFrontMerge(t *testing.T) {
	d, p := testPlug(0, 0)
	tl := simtime.NewTimeline(0)
	// Second request ends where the first begins: front merge.
	p.Add(OpRead, 4096, 4096, 1)
	p.Add(OpRead, 0, 4096, 0)
	if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.ReadOps != 1 || st.MergedSegments != 1 {
		t.Fatalf("front merge: ReadOps=%d MergedSegments=%d, want 1/1",
			st.ReadOps, st.MergedSegments)
	}
}

// TestPlugBridgeMergeCoalescesCommands: a segment that bridges two
// accumulated commands must leave ONE command, not a back-merged pair of
// adjacent dispatches — the Linux block layer's second-level (command to
// command) merge.
func TestPlugBridgeMergeCoalescesCommands(t *testing.T) {
	d, p := testPlug(0, 0)
	tl := simtime.NewTimeline(0)
	p.Add(OpWrite, 0, 4096, 0)
	p.Add(OpWrite, 8192, 4096, 2)
	p.Add(OpWrite, 4096, 4096, 1) // bridges the two commands above
	if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.WriteOps != 1 {
		t.Fatalf("WriteOps = %d, want 1 (bridged commands must coalesce)", st.WriteOps)
	}
	if st.WriteBytes != 3*4096 {
		t.Fatalf("WriteBytes = %d, want %d", st.WriteBytes, 3*4096)
	}
	if st.PlugSegments != 3 || st.PlugCommands != 1 || st.MergedSegments != 2 {
		t.Fatalf("plug counters = %d/%d/%d, want 3/1/2",
			st.PlugSegments, st.PlugCommands, st.MergedSegments)
	}
	segs := p.Segments()
	for i, s := range segs {
		if s.Cmd != segs[0].Cmd {
			t.Fatalf("segment %d on command %d, want all on %d", i, s.Cmd, segs[0].Cmd)
		}
		if !s.Issued || s.Err != nil {
			t.Fatalf("segment %d not issued cleanly: %+v", i, s)
		}
		if s.Done != segs[0].Done {
			t.Fatalf("bridged segments complete apart: %v vs %v", s.Done, segs[0].Done)
		}
	}
}

// TestPlugBridgeMergeRespectsWindow: the second-level merge is still
// bounded by the merge window — a bridge whose combined command would
// exceed it keeps the pair separate.
func TestPlugBridgeMergeRespectsWindow(t *testing.T) {
	d, p := testPlug(0, 8192)
	tl := simtime.NewTimeline(0)
	p.Add(OpWrite, 0, 4096, 0)
	p.Add(OpWrite, 8192, 4096, 2)
	p.Add(OpWrite, 4096, 4096, 1) // merges into one side; 12KB > window stops the pair merge
	if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.WriteOps != 2 || st.MergedSegments != 1 {
		t.Fatalf("window-bounded bridge: WriteOps=%d MergedSegments=%d, want 2/1",
			st.WriteOps, st.MergedSegments)
	}
	// Every segment still maps to a live command with a sane result.
	for i, s := range p.Segments() {
		if !s.Issued || s.Err != nil {
			t.Fatalf("segment %d not issued cleanly: %+v", i, s)
		}
	}
}

func TestPlugMergeWindowBound(t *testing.T) {
	d, p := testPlug(0, 8192)
	tl := simtime.NewTimeline(0)
	// Three adjacent 4KB chunks under an 8KB window: only two may merge.
	p.Add(OpRead, 0, 4096, 0)
	p.Add(OpRead, 4096, 4096, 1)
	p.Add(OpRead, 8192, 4096, 2)
	if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.ReadOps != 2 || st.MergedSegments != 1 {
		t.Fatalf("window bound: ReadOps=%d MergedSegments=%d, want 2/1",
			st.ReadOps, st.MergedSegments)
	}
}

func TestPlugOpsDoNotMergeAcrossKind(t *testing.T) {
	d, p := testPlug(0, 0)
	tl := simtime.NewTimeline(0)
	p.Add(OpRead, 0, 4096, 0)
	p.Add(OpWrite, 4096, 4096, 1)
	if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.ReadOps != 1 || st.WriteOps != 1 || st.MergedSegments != 0 {
		t.Fatalf("cross-op merge: %+v", d.Stats())
	}
}

// TestPlugMergeChargesOneCmdOverhead pins the perf claim: a merged
// command costs one CmdOverhead for the combined transfer, so the plug
// finishes earlier than the same chunks dispatched separately.
func TestPlugMergeChargesOneCmdOverhead(t *testing.T) {
	cfg := testConfig()

	d, p := testPlug(0, 0)
	tl := simtime.NewTimeline(0)
	p.Add(OpRead, 0, 1<<20, 0)
	p.Add(OpRead, 1<<20, 1<<20, 256)
	if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	want := cfg.CmdOverhead + d.transfer(2<<20, cfg.ReadBandwidth) + cfg.ReadLatency
	if got := tl.Elapsed(); got != want {
		t.Fatalf("merged elapsed = %v, want %v (one CmdOverhead)", got, want)
	}

	d2 := New(cfg)
	tl2 := simtime.NewTimeline(0)
	if err := d2.Access(tl2, OpRead, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := d2.Access(tl2, OpRead, 1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	if tl2.Elapsed() <= tl.Elapsed() {
		t.Fatalf("separate dispatch (%v) should be slower than merged (%v)",
			tl2.Elapsed(), tl.Elapsed())
	}
}

// TestPlugQueueDepthGatesDispatch: with QD=1 command i+1 may not be
// submitted before command i completed (latency included), so the same
// command train takes longer than at a deeper queue.
func TestPlugQueueDepthGatesDispatch(t *testing.T) {
	elapsed := func(qd int) simtime.Duration {
		_, p := testPlug(qd, 0)
		tl := simtime.NewTimeline(0)
		for i := 0; i < 8; i++ {
			p.Add(OpRead, int64(i)<<30, 1<<20, int64(i)) // disjoint: no merging
		}
		if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
			t.Fatal(err)
		}
		return tl.Elapsed()
	}
	shallow, deep := elapsed(1), elapsed(32)
	if shallow <= deep {
		t.Fatalf("QD=1 elapsed %v not slower than QD=32 elapsed %v", shallow, deep)
	}
	// At QD=1 each command waits out the previous one's latency too:
	// 8×(hold+latency) vs hold×8+latency when fully pipelined.
	cfg := testConfig()
	hold := cfg.CmdOverhead + New(cfg).transfer(1<<20, cfg.ReadBandwidth)
	if want := 8 * (hold + cfg.ReadLatency); shallow != want {
		t.Fatalf("QD=1 elapsed = %v, want %v", shallow, want)
	}
	if want := 8*hold + cfg.ReadLatency; deep != want {
		t.Fatalf("QD=32 elapsed = %v, want %v", deep, want)
	}
}

// TestFlushAsyncCongestionPostponesTail: once the flush's own reservation
// horizon exceeds the congestion limit, the remaining commands are marked
// Congested and never touch the device — even when the command count far
// exceeds the ledger's span ring, where the raw backlog reading plateaus.
func TestFlushAsyncCongestionPostponesTail(t *testing.T) {
	d, p := testPlug(0, 0)
	const n = 2048
	for i := 0; i < n; i++ {
		p.Add(OpRead, int64(i)<<30, 4096, int64(i)) // disjoint: no merging
	}
	p.FlushAsync(simtime.Time(0), 5*simtime.Millisecond)
	var issued, congested int64
	for _, s := range p.Segments() {
		switch {
		case s.Issued:
			issued++
		case s.Congested:
			congested++
		default:
			t.Fatalf("segment neither issued nor congested: %+v", s)
		}
	}
	if issued == 0 || congested == 0 {
		t.Fatalf("issued=%d congested=%d, want both nonzero", issued, congested)
	}
	st := d.Stats()
	if st.ReadOps != issued || st.ReadBytes != issued*4096 {
		t.Fatalf("device saw %d ops/%d bytes, want only the %d issued commands",
			st.ReadOps, st.ReadBytes, issued)
	}
	// The per-command hold bounds how many commands fit under the limit;
	// the plateaued ring alone would have let all 2048 through.
	cfg := testConfig()
	hold := cfg.CmdOverhead + d.transfer(4096, cfg.ReadBandwidth)
	if max := int64(5*simtime.Millisecond/hold) + 2; issued > max {
		t.Fatalf("issued %d commands, congestion should trip by ~%d", issued, max)
	}
}

// TestFlushAsyncFaultAbortsRest: a failed command stops dispatch of the
// remaining commands.
func TestFlushAsyncFaultAbortsRest(t *testing.T) {
	d, p := testPlug(0, 0)
	d.SetFaultInjector(&stubInjector{fail: map[int64]bool{1 << 30: true}})
	p.Add(OpRead, 0, 4096, 0)
	p.Add(OpRead, 1<<30, 4096, 1)
	p.Add(OpRead, 2<<30, 4096, 2)
	p.FlushAsync(simtime.Time(0), 0)
	segs := p.Segments()
	if !segs[0].Issued {
		t.Fatal("first command should dispatch")
	}
	if segs[1].Err == nil {
		t.Fatal("faulted command should carry its error")
	}
	if segs[2].Issued || segs[2].Err != nil || segs[2].Congested {
		t.Fatalf("command after fault should be skipped, got %+v", segs[2])
	}
}

func TestRetryPolicyBackoffClamp(t *testing.T) {
	rp := RetryPolicy{Max: 100, Base: 50 * simtime.Microsecond, Cap: 10 * simtime.Millisecond}
	cases := []struct {
		attempt int
		want    simtime.Duration
	}{
		{1, 50 * simtime.Microsecond},
		{2, 100 * simtime.Microsecond},
		{8, 6400 * simtime.Microsecond},
		{9, 10 * simtime.Millisecond},  // clamped
		{64, 10 * simtime.Millisecond}, // unclamped shift would be zero
		{80, 10 * simtime.Millisecond}, // unclamped shift overflows sign
	}
	for _, c := range cases {
		if got := rp.Backoff(c.attempt); got != c.want {
			t.Errorf("Backoff(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
	// A base already near the top of the range must clamp, not go negative.
	huge := RetryPolicy{Max: 5, Base: simtime.Duration(1) << 61, Cap: 10 * simtime.Millisecond}
	for attempt := 1; attempt <= 5; attempt++ {
		if got := huge.Backoff(attempt); got < 0 || got > simtime.Duration(1)<<61 {
			t.Fatalf("Backoff(%d) with huge base = %v (overflow escaped the clamp)", attempt, got)
		}
	}
}

// TestPlugResetReusable: pooled plugs must not leak results between uses.
func TestPlugResetReusable(t *testing.T) {
	d, p := testPlug(0, 0)
	tl := simtime.NewTimeline(0)
	p.Add(OpRead, 0, 4096, 0)
	if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if len(p.Segments()) != 0 || p.Retries() != 0 {
		t.Fatal("reset plug retains state")
	}
	p.Add(OpRead, 4096, 4096, 1)
	if err := p.FlushSync(tl, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.ReadOps != 2 {
		t.Fatalf("ReadOps = %d after reuse, want 2", st.ReadOps)
	}
}

// TestStackPlugResetAudit is the pooled-object audit for the plug (the vfs
// pools plugs and Resets each one it takes): every field of a plug is
// dirtied, the plug is Reset, and a sequence that exercises both flushes
// must then behave exactly as on a fresh plug over a twin stack — the
// class of bug where one request's leftovers (once, the async horizon)
// reach the next user and virtual time starts to depend on what the pool
// hands out.
func TestStackPlugResetAudit(t *testing.T) {
	// Every field has to be classified below: configuration that Reset
	// keeps, or per-use state that it dirties and Reset must clear.
	if n := reflect.TypeOf(StackPlug{}).NumField(); n != 8 {
		t.Fatalf("StackPlug has %d fields, this audit knows 8: classify the new one", n)
	}
	if n := reflect.TypeOf(queue{}).NumField(); n != 3 {
		t.Fatalf("queue has %d fields, this audit knows 3: classify the new one", n)
	}
	cfg := testStripeConfig(2)
	cfg.Tier = TierConfig{Enabled: true, Remote: testConfig(), RemoteFrac: 0.5, CrossTierPrefetch: true}
	pcfg := PlugConfig{QueueDepth: 2, MergeWindowBytes: 256 << 10}
	fresh := NewStack(cfg).NewPlug(pcfg)
	used := NewStack(cfg).NewPlug(pcfg)

	// st and cfg are configuration; everything else is state.
	garbage := command{op: OpWrite, off: 1 << 40, bytes: 12345, nsegs: 9,
		issued: true, congested: true, err: ErrInjected, done: 1 << 50}
	for m := range used.mem {
		used.mem[m] = queue{cmds: []command{garbage, garbage, garbage}, horizon: 1 << 55, base: 77}
	}
	used.segs = []Segment{{Op: OpWrite, Off: 1, Bytes: 2, UserLo: 3, Cmd: 4, Issued: true,
		Congested: true, Err: ErrInjected, Done: 1 << 50, m: 2, cmd: 2, req: 5}}
	used.reqs = []Request{{Op: OpWrite, Off: 1, Bytes: 2, UserLo: 3, Issued: true, Congested: true,
		Partial: true, Err: ErrPartialStack, Done: 1 << 50, prefetch: true, pieces: 4, issued: 2}}
	used.pieces = []piece{{m: 2, off: 9, gOff: 9, n: 9}}
	used.retries = 11
	used.prefetch = true
	used.Reset()

	type outcome struct {
		segs    []Segment
		reqs    []Request
		retries int
		cmds    int
		errs    []error
		stats   []Stats
		now     simtime.Time
	}
	run := func(p *StackPlug) (o outcome) {
		tl := simtime.NewTimeline(0)
		p.st.SetFaultInjector(&stubInjector{fail: map[int64]bool{128 << 10: true}})
		p.MarkPrefetch(true)
		for i := int64(0); i < 12; i++ {
			p.Add(OpRead, i*96<<10, 96<<10, i*24)
		}
		p.FlushAsync(tl.Now(), 400*simtime.Microsecond)
		o.segs = append(o.segs, p.Segments()...)
		o.reqs = append(o.reqs, p.Requests()...)
		o.cmds = p.DispatchedCommands()
		p.Reset()
		for i := int64(0); i < 6; i++ {
			p.Add(OpRead, 4<<20+i*64<<10, 64<<10, i*16)
		}
		o.errs = append(o.errs, p.FlushSync(tl, RetryPolicy{Max: 2, Base: simtime.Microsecond}))
		o.segs = append(o.segs, p.Segments()...)
		o.reqs = append(o.reqs, p.Requests()...)
		o.cmds += p.DispatchedCommands()
		o.retries = p.Retries()
		o.stats = append(p.st.MemberStats(), p.st.Stats())
		o.now = tl.Now()
		return o
	}
	if want, got := run(fresh), run(used); !reflect.DeepEqual(want, got) {
		t.Errorf("a dirtied plug behaves differently after Reset\nfresh %+v\nreset %+v", want, got)
	}
}
