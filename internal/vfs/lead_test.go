package vfs

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// leadFile opens a 4 MB synthetic file on an idle single-device stack with
// kernel readahead off (POSIX_FADV_RANDOM still tracks the stream), so
// that only the test's own prefetches put pages in flight.
func leadFile(t *testing.T) (*simtime.Timeline, *File, *blockdev.Stack) {
	t.Helper()
	v, st := newSchedKernel(t, DefaultConfig(), 100_000)
	tl := simtime.NewTimeline(0)
	if _, err := v.FS().CreateSynthetic(tl, "f", 4<<20); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open(tl, "f")
	if err != nil {
		t.Fatal(err)
	}
	f.Fadvise(tl, AdvRandom, 0, 0)
	return tl, f, st
}

// prefetchBlock puts block b in flight and returns when it lands.
func prefetchBlock(t *testing.T, tl *simtime.Timeline, f *File, b int64) simtime.Time {
	t.Helper()
	if _, err := f.prefetchRuns(tl, tl.Now(), []bitmap.Run{{Lo: b, Hi: b + 1}}, -1,
		telemetry.OriginReadahead, telemetry.ArmNone); err != nil {
		t.Fatal(err)
	}
	res := f.fc.LookupRange(nil, b, b+1)
	if res.PresentCount != 1 || res.ReadyAt <= tl.Now() {
		t.Fatalf("block %d: present %d, ready at %v (now %v): not in flight", b, res.PresentCount, res.ReadyAt, tl.Now())
	}
	return res.ReadyAt
}

// readBlock demand-reads block b.
func readBlock(t *testing.T, tl *simtime.Timeline, f *File, b int64) {
	t.Helper()
	var buf [4096]byte
	if _, err := f.ReadAt(tl, buf[:], b*4096); err != nil {
		t.Fatal(err)
	}
}

// lateRead prefetches block b, lets half of its fetch pass and
// demand-reads it: the read finds its page in flight and waits for it.
func lateRead(t *testing.T, tl *simtime.Timeline, f *File, b int64) {
	t.Helper()
	ready := prefetchBlock(t, tl, f, b)
	tl.Advance(ready.Sub(tl.Now()) / 2)
	readBlock(t, tl, f, b)
	if tl.Now() < ready {
		t.Fatalf("block %d: the read returned at %v, before its page landed at %v", b, tl.Now(), ready)
	}
}

// TestLeadFollowsLateReads: the descriptor's prefetch lead is 1 until a
// sequential demand read waits on in-flight pages of an idle backend, 2
// from then on however many such reads follow, and 1 again after a
// demand read that misses or leaves the stream.
func TestLeadFollowsLateReads(t *testing.T) {
	tl, f, _ := leadFile(t)
	lead := func(step string, want int64) {
		t.Helper()
		if got := f.Lead(); got != want {
			t.Fatalf("%s: lead %d, want %d", step, got, want)
		}
	}
	lead("fresh descriptor", 1)
	readBlock(t, tl, f, 0)
	lead("a cold first read", 1)
	lateRead(t, tl, f, 1)
	lead("a late sequential read on an idle stack", 2)
	for b := int64(2); b < 6; b++ {
		lateRead(t, tl, f, b)
		lead("four more late reads", 2)
	}
	readBlock(t, tl, f, 6)
	lead("a sequential read that misses", 1)
	lateRead(t, tl, f, 7)
	lead("late again", 2)
	readBlock(t, tl, f, 0)
	lead("a cached read that leaves the stream", 1)
	lateRead(t, tl, f, 40)
	lead("a late read that leaves the stream", 1)
}

// TestLateReadOnBacklogLeavesLead: a late sequential read whose
// backend is backlogged past what the read itself would cost leaves the
// lead at 1 — a deeper lead cannot help a saturated device.
func TestLateReadOnBacklogLeavesLead(t *testing.T) {
	tl, f, st := leadFile(t)
	readBlock(t, tl, f, 0)
	ready := prefetchBlock(t, tl, f, 1)
	if _, err := st.Member(0).AccessAsync(tl.Now(), blockdev.OpRead, 0, 1<<30); err != nil {
		t.Fatal(err)
	}
	tl.Advance(ready.Sub(tl.Now()) / 2)
	if b, c := f.RangeBacklog(tl.Now(), 1, 2), f.v.dev.SyncCost(blockdev.OpRead, 4096); b <= c {
		t.Fatalf("setup: backlog %v within a 4 KB read's cost %v", b, c)
	}
	readBlock(t, tl, f, 1)
	if tl.Now() < ready {
		t.Fatal("setup: the read did not wait on its in-flight page")
	}
	if got := f.Lead(); got != 1 {
		t.Fatalf("a late read on a backlogged backend: lead %d, want 1", got)
	}
}

// TestLateReadZeroAlloc: a late demand read — the lookup, the backlog test
// that sets the lead, the wait — allocates nothing. Only the reads are
// counted (their prefetches are not), and the guard takes the fewest of
// three windows of 64 late reads, since runtime noise only adds.
func TestLateReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc guard is meaningless")
	}
	tl, f, _ := leadFile(t)
	readBlock(t, tl, f, 0)
	var buf [4096]byte
	b := int64(1)
	fewest := uint64(math.MaxUint64)
	runtime.GC()
	for w := 0; w < 3; w++ {
		var mallocs uint64
		for i := 0; i < 64; i++ {
			ready := prefetchBlock(t, tl, f, b)
			tl.Advance(ready.Sub(tl.Now()) / 2)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err := f.ReadAt(tl, buf[:], b*4096)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			mallocs += m1.Mallocs - m0.Mallocs
			b++
		}
		fewest = min(fewest, mallocs)
	}
	if got := f.Lead(); got != 2 {
		t.Fatalf("the reads did not take the late path: lead %d, want 2", got)
	}
	if fewest != 0 {
		t.Errorf("late ReadAt: %d allocs in the best window of 64, want 0", fewest)
	}
}
