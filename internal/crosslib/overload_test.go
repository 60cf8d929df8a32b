package crosslib

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// TestRingCloseReapRace: a Close racing an in-flight Submit must not
// strand parked CQEs or deadlock a reaper. Before the fix, Close's
// broadcast woke a blocked reaper immediately; if a Submit had already
// taken its staged batch but not yet appended the completions, the
// reaper returned empty and the CQEs were appended to a queue nobody
// would ever drain. Now every successfully prepped op is either reaped
// or counted discarded, exactly once.
func TestRingCloseReapRace(t *testing.T) {
	v := newKernel(1 << 20)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "race", 16<<20)
	f, err := rt.Open(tl, "race")
	if err != nil {
		t.Fatal(err)
	}

	const iters = 100
	for it := 0; it < iters; it++ {
		ring := rt.NewRing(0, 64)
		prepped := int64(0)
		bufs := make([][]byte, 16)
		for i := range bufs {
			bufs[i] = make([]byte, 128<<10)
			if ring.PrepRead(f, bufs[i], int64(i)*(128<<10), uint64(i)) == nil {
				prepped++
			}
		}

		var reaped atomic.Int64
		started := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rtl := simtime.NewTimeline(0)
			for {
				cqs := ring.Reap(rtl, 1)
				if len(cqs) == 0 {
					return
				}
				reaped.Add(int64(len(cqs)))
			}
		}()
		go func() {
			defer wg.Done()
			stl := simtime.NewTimeline(0)
			close(started)
			ring.Submit(stl)
		}()
		// Close as the Submit crossing is (most likely) mid-flight: the
		// staged batch is taken but its completions not yet parked.
		<-started
		ring.Close()
		wg.Wait()

		// No rescue drain: the reap-until-empty consumer above is the
		// whole contract. Anything it did not see must be in Discarded.
		st := ring.Stats()
		if got := reaped.Load() + st.Discarded; got != prepped {
			t.Fatalf("iter %d: reaped %d + discarded %d = %d, want %d prepped (leaked CQEs)",
				it, reaped.Load(), st.Discarded, got, prepped)
		}
	}
}

// TestBreakerProbeSurvivesShed: a half-open breaker's probe prefetch
// that the kernel SHEDS (its deadline passed on the way in) must not
// consume the probe slot — the breaker state stays exactly as it was, so
// the probe re-arms on the next intent. Before the fix, Submit fed every
// non-nil CQE error to noteFault, so a shed re-armed the cooloff as if
// the probe had failed, keeping prefetch off long after the overload.
func TestBreakerProbeSurvivesShed(t *testing.T) {
	v, dev := newKernelStack(blockdev.NVMeConfig(), 1<<20)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "shed", 64<<20)
	f, err := rt.Open(tl, "shed")
	if err != nil {
		t.Fatal(err)
	}
	ring := rt.NewRing(0, 64)

	// Drain the device, so the library's own deadline check (device
	// backlog against the deadline) admits the probe.
	tl.Advance(50 * simtime.Millisecond)
	if got := dev.Backlog(tl.Now()); got != 0 {
		t.Fatalf("device backlog %v after draining, want 0", got)
	}

	// Force the breaker half-open: open, with the cooloff already
	// elapsed, so allow() grants exactly one probe.
	now := tl.Now()
	f.rt.mu.Lock()
	f.sf.brk.open = true
	f.sf.brk.fails = rt.opt.BreakerThreshold
	f.sf.brk.reopenAt = now
	f.rt.mu.Unlock()

	// The probe: a prefetch intent for an uncached range, due 100ns from
	// now. The library admits it; the ring_enter crossing carries the
	// clock past the deadline, so the kernel sheds it with ErrShed.
	crossings := v.SyscallCount(vfs.SysRingEnter)
	if err := ring.PrepPrefetch(f, 32<<20, 1<<20, 2, now.Add(100)); err != nil {
		t.Fatal(err)
	}
	ring.Submit(tl)
	if d := v.SyscallCount(vfs.SysRingEnter) - crossings; d != 1 {
		t.Fatalf("probe crossed %d times, want 1 (the library must admit it)", d)
	}
	var shedCQE bool
	for _, cq := range ring.Reap(tl, 0) {
		if cq.User != 2 {
			continue
		}
		if !errors.Is(cq.Err, vfs.ErrShed) {
			t.Fatalf("probe CQE error = %v, want vfs.ErrShed", cq.Err)
		}
		shedCQE = true
	}
	if !shedCQE {
		t.Fatal("probe prefetch CQE not delivered")
	}

	f.rt.mu.Lock()
	open, fails, reopenAt := f.sf.brk.open, f.sf.brk.fails, f.sf.brk.reopenAt
	f.rt.mu.Unlock()
	if !open || fails != rt.opt.BreakerThreshold || reopenAt != now {
		t.Fatalf("shed consumed the probe slot: open=%v fails=%d reopenAt=%v (want open=true fails=%d reopenAt=%v)",
			open, fails, reopenAt, rt.opt.BreakerThreshold, now)
	}
	if got := rt.Stats().BreakerTrips; got != 0 {
		t.Fatalf("shed counted as breaker trip: %d", got)
	}
}

// TestClampedGrantNotReasked: the kernel clamps a readahead_info window
// without OptLimits to its static window, and the library used to walk
// straight through a clamp, re-asking for the remainder of a 1024-page
// intent one window a crossing. One window per intent, with or without
// OptLimits: the clamped remainder gets its requested bits back, as the
// ring path always did.
func TestClampedGrantNotReasked(t *testing.T) {
	v := newKernel(1 << 20)
	rt := NewForApproach(v, CrossPredict)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "clamp", 64<<20)
	f, err := rt.Open(tl, "clamp")
	if err != nil {
		t.Fatal(err)
	}
	base := rt.Stats()
	crossings := v.SyscallCount(vfs.SysReadaheadInfo)

	const lo, blocks = 8192, 1024
	window := f.kf.StaticWindow(lo, lo+blocks)
	if window >= blocks {
		t.Fatalf("static window %d pages does not clamp a %d-page intent", window, blocks)
	}
	f.prefetchAsync(tl, lo, blocks, budgetUnasked, false) // job runs inline on the worker pool

	st := rt.Stats()
	if d := v.SyscallCount(vfs.SysReadaheadInfo) - crossings; d != 1 {
		t.Errorf("clamped 1024-page intent crossed %d times, want 1", d)
	}
	if d := st.PrefetchCalls - base.PrefetchCalls; d != 1 {
		t.Errorf("clamped 1024-page intent made %d prefetch calls, want 1", d)
	}
	if d := st.PrefetchedPages - base.PrefetchedPages; d > window {
		t.Errorf("%d pages fetched through a %d-page clamp", d, window)
	}
	// The remainder is missing again, not stranded as requested.
	runs := f.sf.tree.NeedsPrefetch(tl, lo+window, lo+blocks)
	if len(runs) != 1 || runs[0].Lo != lo+window || runs[0].Hi != lo+blocks {
		t.Errorf("clamped remainder not given back: missing runs %v", runs)
	}
}

// tenantStressor is one submitter of the tenant stress runs: a ring of its
// own, on a timeline of its own, reading its file front to back in 64KB
// chunks, passes times over.
type tenantStressor struct {
	tenant int
	tl     *simtime.Timeline
	f      *File
	ring   *Ring
	buf    []byte
	off    int64
	left   int // passes not yet finished
}

// step submits and reaps the next read; it reports false once every pass
// is done.
func (s *tenantStressor) step() (bool, error) {
	if s.left == 0 {
		return false, nil
	}
	if err := s.ring.PrepRead(s.f, s.buf, s.off, uint64(s.off)); err != nil {
		return false, err
	}
	if s.ring.Submit(s.tl) != 1 {
		return false, fmt.Errorf("tenant %d: submit consumed != 1", s.tenant)
	}
	for _, cq := range s.ring.Reap(s.tl, 1) {
		if cq.Err != nil {
			return false, fmt.Errorf("tenant %d off %d: %w", s.tenant, cq.User, cq.Err)
		}
	}
	if s.off += int64(len(s.buf)); s.off >= s.f.Size() {
		s.off = 0
		s.left--
	}
	return true, nil
}

// tenantStress builds the stress scene — a 2048-page cache; tenant 0, the
// antagonist, scanning a 16MB file (2x the cache) twice with no budget;
// tenants 1..7 each rereading a 4MB file three times under a 256-page hard
// cap — hands the eight submitters to drive, and then checks the tenant
// ledgers at quiescence: per tenant inserted − evicted == resident, nobody
// budgeted over its cap, and the residencies partition the global page
// count with no remainder. It returns the cache's counters.
func tenantStress(t *testing.T, drive func([]*tenantStressor) error) pagecache.Stats {
	t.Helper()
	const (
		capacity = 2048 // pages (8MB)
		nTenants = 8
		soft     = int64(128)
		hard     = int64(256)
		chunk    = 64 << 10
	)
	v := newKernel(capacity)
	rt := NewForApproach(v, CrossPredictOpt)
	setup := simtime.NewTimeline(0)
	subs := make([]*tenantStressor, nTenants)
	for i := range subs {
		name, size, passes := "antagonist", int64(16<<20), 2
		if i > 0 {
			name, size, passes = fmt.Sprintf("victim%d", i), 4<<20, 3
			v.Cache().SetTenantBudget(i, soft, hard)
		}
		v.FS().CreateSynthetic(setup, name, size)
		tl := simtime.NewTimeline(0)
		f, err := rt.Open(tl, name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close(tl)
		ring := rt.NewRing(i, 64)
		defer ring.Close()
		subs[i] = &tenantStressor{tenant: i, tl: tl, f: f, ring: ring, buf: make([]byte, chunk), left: passes}
	}
	if err := drive(subs); err != nil {
		t.Fatal(err)
	}

	var sum int64
	for _, ts := range v.Cache().TenantStats() {
		if ts.Inserted-ts.Evicted != ts.Resident {
			t.Errorf("tenant %d: inserted %d - evicted %d != resident %d",
				ts.ID, ts.Inserted, ts.Evicted, ts.Resident)
		}
		if ts.Resident < 0 {
			t.Errorf("tenant %d: negative residency %d", ts.ID, ts.Resident)
		}
		if ts.ID != 0 && ts.HardBudget > 0 && ts.Resident > ts.HardBudget {
			// Hard reclaim runs on the inserting thread, so at
			// quiescence a budgeted tenant sits at or under its cap.
			t.Errorf("tenant %d: resident %d over hard budget %d",
				ts.ID, ts.Resident, ts.HardBudget)
		}
		sum += ts.Resident
	}
	if used := v.Cache().Used(); sum != used {
		t.Errorf("tenant residencies sum to %d, cache used %d", sum, used)
	}
	return v.Cache().Stats()
}

// TestTenantStressReconciliation: the eight submitters as free-running
// goroutines must leave the tenant ledgers exactly consistent at
// quiescence, at several GOMAXPROCS settings. The antagonist pushes twice
// the cache through it whatever the schedule, so pages must have been
// evicted; whether a budgeted tenant ever crosses its own cap is the
// schedule's to decide (the antagonist's scan and the library's evictor may
// take its pages first: 3 runs in 500 on two cores saw no crossing), so
// that leg is TestTenantReclaimRoundRobin's.
func TestTenantStressReconciliation(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			st := tenantStress(t, func(subs []*tenantStressor) error {
				errs := make(chan error, len(subs))
				var wg sync.WaitGroup
				for _, s := range subs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							if more, err := s.step(); !more {
								errs <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						return err
					}
				}
				return nil
			})
			if st.Evictions == 0 {
				t.Error("antagonist scan caused no global evictions")
			}
		})
	}
}

// TestTenantReclaimRoundRobin: the same scene with the submitters taking
// turns on this goroutine, so that who inserts when is a function of the
// scene and not of the host's scheduler. A turn is 64 reads — a victim's
// whole 1024-page file under its 256-page cap, with nobody else inserting
// meanwhile — so every victim crosses its cap, and tenant-targeted reclaim
// is what brings it back. (One read per turn would not do: eight submitters
// in lockstep hold an eighth of the cache each, which is the cap.)
func TestTenantReclaimRoundRobin(t *testing.T) {
	st := tenantStress(t, func(subs []*tenantStressor) error {
		for progress := true; progress; {
			progress = false
			for _, s := range subs {
				for k := 0; k < 64; k++ {
					more, err := s.step()
					if err != nil {
						return err
					}
					progress = progress || more
				}
			}
		}
		return nil
	})
	if st.TenantReclaims == 0 {
		t.Error("no tenant-targeted reclaims despite over-budget rereads")
	}
}

// TestDeadlineShedAndMiss: a prefetch deadline has two outcomes, and they
// stay distinct. An intent already past its deadline is shed in the
// library with ErrShed and never crosses; one the ring admits but whose
// pages land after its deadline keeps its N, completes with
// ErrDeadlineExceeded and is counted as a deadline miss.
func TestDeadlineShedAndMiss(t *testing.T) {
	v := newKernel(1 << 20)
	rec := telemetry.NewRecorder(0)
	v.SetTelemetry(rec)
	rt := NewForApproach(v, CrossPredictOpt)
	rt.SetTelemetry(rec)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "dl", 16<<20)
	f, err := rt.Open(tl, "dl")
	if err != nil {
		t.Fatal(err)
	}
	ring := rt.NewRing(0, 64)
	// Drain what the open prefetched, so the device starts idle.
	tl.Advance(50 * simtime.Millisecond)
	submit := func(off int64, user uint64, deadline simtime.Time) RingCQE {
		t.Helper()
		if err := ring.PrepPrefetch(f, off, 1<<20, user, deadline); err != nil {
			t.Fatal(err)
		}
		ring.Submit(tl)
		cqes := ring.Reap(tl, 1)
		if len(cqes) != 1 || cqes[0].User != user {
			t.Fatalf("reaped %+v, want the one CQE of user %d", cqes, user)
		}
		return cqes[0]
	}

	crossings := v.SyscallCount(vfs.SysRingEnter)
	if cq := submit(0, 1, tl.Now().Add(-simtime.Microsecond)); !errors.Is(cq.Err, vfs.ErrShed) || cq.N != 0 {
		t.Fatalf("expired prefetch completed as %+v, want vfs.ErrShed and N = 0", cq)
	}
	if d := v.SyscallCount(vfs.SysRingEnter) - crossings; d != 0 {
		t.Fatalf("expired prefetch crossed %d times, want 0", d)
	}
	if got := rec.CounterValue(telemetry.CtrRingDeadlineMisses); got != 0 {
		t.Fatalf("a shed counted %d deadline misses, want 0", got)
	}

	// The device is idle, so the library admits the intent; reading 1MB
	// takes longer than its 20µs of slack.
	due := tl.Now().Add(20 * simtime.Microsecond)
	cq := submit(4<<20, 2, due)
	if !errors.Is(cq.Err, vfs.ErrDeadlineExceeded) || cq.N != (1<<20)/v.BlockSize() || cq.Done <= due {
		t.Fatalf("late prefetch completed as %+v (due %d), want vfs.ErrDeadlineExceeded, N = %d and Done past due",
			cq, due, (1<<20)/v.BlockSize())
	}
	if got := rec.CounterValue(telemetry.CtrRingDeadlineMisses); got != 1 {
		t.Fatalf("ring_deadline_misses = %d after one late prefetch, want 1", got)
	}
}

// TestRingDeadlineShedReadsTargetBackends: Submit sheds a deadline
// prefetch in the library when the device backlog alone already pushes it
// past its deadline — and that must be the backlog of the backends the
// intent's extents resolve to. Before the fix it read member 0 only, so on
// a tiered stack an intent bound for a saturated remote member paid the
// crossing (for the kernel to drop it), and an intent bound for an idle
// remote member was shed because the local member was busy.
func TestRingDeadlineShedReadsTargetBackends(t *testing.T) {
	for _, saturateRemote := range []bool{true, false} {
		costs := simtime.DefaultCosts()
		st := blockdev.NewStack(blockdev.StackConfig{
			Local: blockdev.NVMeConfig(),
			Tier:  blockdev.TierConfig{Enabled: true, RemoteFrac: 0.5},
		})
		fsys := fs.New(fs.LayoutExtent, 4096, costs)
		cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: 1 << 20, Costs: costs}, nil)
		cfg := vfs.DefaultConfig()
		cfg.AllowLimitOverride = true
		v := vfs.NewStack(cfg, fsys, st, cache)
		rt := NewForApproach(v, CrossPredictOpt)
		tl := simtime.NewTimeline(0)
		if _, err := v.FS().CreateSynthetic(tl, "tiered", 16<<20); err != nil {
			t.Fatal(err)
		}
		f, err := rt.Open(tl, "tiered")
		if err != nil {
			t.Fatal(err)
		}

		// Saturate one member far past the deadline slack; the other idles.
		busy := st.Member(0)
		if saturateRemote {
			busy = st.Member(st.NumMembers() - 1)
		}
		if _, err := busy.AccessAsync(tl.Now(), blockdev.OpRead, 0, 1<<30); err != nil {
			t.Fatal(err)
		}

		// A 64KB window on the remote member, past anything open-time
		// prefetch touched.
		const win = 64 << 10
		bs := v.BlockSize()
		remoteOff := int64(-1)
		for off := int64(8 << 20); off+win <= f.Size() && remoteOff < 0; off += win {
			prs := f.Kernel().Inode().MapRange(off/bs, (off+win)/bs)
			if len(prs) != 1 {
				t.Fatalf("window at %d maps to %d extents", off, len(prs))
			}
			// Exactly one member is saturated (the other carries at most
			// the open-time prefetch): a window is remote if it sees the
			// saturation when the remote member has it, and does not when
			// the local member has it.
			if busyHere := st.BacklogFor(tl.Now(), prs[0].Phys*bs, win) > 100*simtime.Millisecond; busyHere == saturateRemote {
				remoteOff = off
			}
		}
		if remoteOff < 0 {
			t.Fatal("no remote-resident window found")
		}

		ring := rt.NewRing(0, 8)
		crossings := v.SyscallCount(vfs.SysRingEnter)
		deadline := tl.Now().Add(50 * simtime.Millisecond)
		if err := ring.PrepPrefetch(f, remoteOff, win, 7, deadline); err != nil {
			t.Fatal(err)
		}
		ring.Submit(tl)
		cqes := ring.Reap(tl, 1)
		if len(cqes) != 1 {
			t.Fatalf("got %d CQEs, want 1", len(cqes))
		}
		crossed := v.SyscallCount(vfs.SysRingEnter) - crossings
		if saturateRemote {
			if !errors.Is(cqes[0].Err, vfs.ErrShed) || crossed != 0 {
				t.Errorf("intent bound for the saturated remote member: err=%v crossings=%d, want ErrShed in the library (0 crossings)",
					cqes[0].Err, crossed)
			}
		} else if cqes[0].Err != nil || crossed != 1 || cqes[0].N == 0 {
			t.Errorf("intent bound for the idle remote member: err=%v crossings=%d pages=%d, want it admitted (member 0's backlog is not its concern)",
				cqes[0].Err, crossed, cqes[0].N)
		}
	}
}
