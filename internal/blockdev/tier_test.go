package blockdev

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// The capped tier's demotion clock (DESIGN.md §16): demand reads heat an
// extent on either tier, reads promote only into free capacity, and a
// write that takes the tier past its cap runs the hand, which halves heat
// as it passes and demotes the first local extent it finds cold — exactly
// while the tier is over its cap.

const tierExt = 64 << 10

// tierStack builds a width-2 stack over n extents of tierExt bytes, every
// extent's residency taken, remoteFrac of them starting remote, capped at
// capExt extents; capExt < 0 caps it at exactly what starts local.
func tierStack(n, capExt int64, remoteFrac float64, promoteReads int) *Stack {
	build := func(capExt int64) *Stack {
		cfg := testStripeConfig(2)
		cfg.Tier = TierConfig{Enabled: true, Remote: testConfig(), ExtentBytes: tierExt,
			RemoteFrac: remoteFrac, CrossTierPrefetch: true, LocalCapBytes: capExt * tierExt,
			PromoteReads: promoteReads}
		st := NewStack(cfg)
		st.BacklogFor(0, 0, n*tierExt) // first touch: every extent takes its residency
		return st
	}
	if capExt < 0 {
		capExt = build(0).TierStats(0).LocalExtents
	}
	return build(capExt)
}

// demandRead books one demand read of extent e completing at at.
func demandRead(st *Stack, e int64, at simtime.Time) { st.noteRead(at, e*tierExt, tierExt, false) }

// write books one write of extent e completing at at: a remote extent
// lands local, and the clock demotes past the cap.
func write(st *Stack, e int64, at simtime.Time) { st.noteWrite(at, e*tierExt, tierExt) }

// Demotion stops at the cap, not at a mark under it: a tier written past
// its cap holds exactly its cap.
func TestTierDemotesToExactlyTheCap(t *testing.T) {
	const n, capExt = 64, 16
	st := tierStack(n, capExt, 1, 1)
	for e := int64(0); e < n; e++ {
		write(st, e, simtime.Time(e+1))
		if ts := st.TierStats(0); ts.LocalExtents != min(e+1, capExt) {
			t.Fatalf("after writing extent %d: %d local extents, want %d", e, ts.LocalExtents, min(e+1, capExt))
		}
	}
	if ts := st.TierStats(0); ts.Demotions != n-capExt {
		t.Errorf("%d demotions, want %d: one per write past the cap", ts.Demotions, n-capExt)
	}
}

// An extent re-read early keeps its place through a later run of
// read-once newcomers, written in, that overflows the tier: each pass of
// the hand halves its heat once, while every newcomer is cold after one
// pass. By recency it would be the first to go.
func TestTierHeatBeatsRecency(t *testing.T) {
	const n, capExt, hot = 64, 8, 0
	st := tierStack(n, capExt, 1, 1)
	var at simtime.Time
	for i := 0; i < 3; i++ {
		at++
		demandRead(st, hot, at)
	}
	for e := int64(1); e <= capExt+capExt/2; e++ {
		at++
		demandRead(st, e, at)
		write(st, e, at)
	}
	if d := st.TierStats(0).Demotions; d < capExt/2 {
		t.Fatalf("setup: %d demotions, want >= %d", d, capExt/2)
	}
	if !st.ext[hot].local {
		t.Error("the extent read three times was demoted ahead of extents read once since")
	}
}

// A hot set whose reads stop cools and leaves: an extent of heat h is
// demoted within bits.Len(h)+1 passes of the hand, here under a stream of
// writes to remote extents that holds the tier at its cap.
func TestTierMovedHotSetCools(t *testing.T) {
	const n, hot, heat = 64, 4, 12
	st := tierStack(n, -1, 0.5, 0)
	var hotSet []int64
	tl := simtime.NewTimeline(0)
	for e := int64(0); e < n && len(hotSet) < hot; e++ {
		if st.ext[e].local {
			hotSet = append(hotSet, e)
			for i := 0; i < heat; i++ {
				demandRead(st, e, tl.Now())
			}
		}
	}
	stillLocal := func() (k int) {
		for _, e := range hotSet {
			if st.ext[e].local {
				k++
			}
		}
		return k
	}
	// Each write lands one cold extent in the tier, so the hand finds a
	// cold one within a pass and its travel per write is (new - old) mod n,
	// in (0, n].
	var travel int64
	next := int64(0)
	for w := 0; stillLocal() > 0; w++ {
		if w > 10*n {
			t.Fatalf("%d of the hot set still local after %d writes", stillLocal(), w)
		}
		for st.ext[next].local {
			next = (next + 1) % n
		}
		before := st.TierStats(0).Hand
		if err := st.Access(tl, OpWrite, next*tierExt, tierExt); err != nil {
			t.Fatal(err)
		}
		ts := st.TierStats(0)
		if ts.LocalExtents != ts.CapExtents {
			t.Fatalf("after a write: %d local extents, cap %d", ts.LocalExtents, ts.CapExtents)
		}
		travel += ((ts.Hand-before-1)%n+n)%n + 1
	}
	passes := (travel + n - 1) / n
	if bound := int64(bits.Len(heat) + 1); passes > bound {
		t.Errorf("the hot set left after %d passes of the hand, want <= %d", passes, bound)
	}
	t.Logf("hot set of heat %d demoted after %d hand steps (%d passes)", heat, travel, passes)
}

// Writes respect the cap: pulling remote extents local for new data
// demotes as a promotion does, so a write-heavy tenant cannot grow the tier
// past LocalCapBytes.
func TestTierWritesRespectTheCap(t *testing.T) {
	const n = 64
	st := tierStack(n, -1, 0.5, 0)
	tl := simtime.NewTimeline(0)
	for e := int64(0); e < n; e++ {
		if !st.ext[e].local {
			if err := st.Access(tl, OpWrite, e*tierExt, tierExt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Access(tl, OpWrite, 0, n*tierExt); err != nil { // one write over the whole range
		t.Fatal(err)
	}
	ts := st.TierStats(0)
	if ts.LocalExtents > ts.CapExtents {
		t.Errorf("writes grew the tier to %d local extents past its cap of %d", ts.LocalExtents, ts.CapExtents)
	}
	if ts.Demotions == 0 || ts.CopybackBytes == 0 {
		t.Errorf("%d demotions and %d copyback bytes, want dirty extents copied back", ts.Demotions, ts.CopybackBytes)
	}
}

// TestTierDemotionZeroAlloc: a write at the cap that demotes walks the
// extent table in place, copies its dirty victims back, and allocates
// nothing; neither does the demand heat that the hand decays.
func TestTierDemotionZeroAlloc(t *testing.T) {
	const n = 64
	st := tierStack(n, -1, 0.5, 1)
	var at simtime.Time
	round := func() {
		for e := int64(0); e < n; e++ {
			at++
			demandRead(st, e, at)
			write(st, e, at)
		}
	}
	round()
	before := st.TierStats(0).Demotions
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("a round of writes at the cap: %v allocs, want 0", allocs)
	}
	if st.TierStats(0).Demotions == before {
		t.Fatal("the measured rounds demoted nothing")
	}
}

// tierOpBytes is the size of one FuzzTierResidency operation.
const tierOpBytes = 4

// tierResidency interprets prog, four bytes an operation — kind, extent,
// block offset, length in blocks — as demand reads, prefetch reads and
// writes over a capped half-remote stack of n extents, and checks after
// every step that the tier holds at most its cap, that its occupancy
// counter agrees with the heat table, and that no read, demand or
// prefetch, demoted anything.
func tierResidency(t *testing.T, prog []byte) {
	const n, blk = 32, 4096
	st := tierStack(n, -1, 0.5, 0)
	p := st.NewPlug(PlugConfig{})
	tl := simtime.NewTimeline(0)
	for step := 0; len(prog) >= tierOpBytes; step++ {
		kind, e, b, l := prog[0]%3, int64(prog[1])%n, int64(prog[2])%(tierExt/blk), int64(prog[3])%48+1
		prog = prog[tierOpBytes:]
		off := e*tierExt + b*blk
		bytes := min(l*blk, n*tierExt-off)
		demotions := st.TierStats(0).Demotions
		var err error
		switch kind {
		case 0, 1:
			_, err = readThrough(p, tl, kind == 1, off, bytes, 0)
		case 2:
			err = st.Access(tl, OpWrite, off, bytes)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ts := st.TierStats(0)
		if ts.LocalExtents > ts.CapExtents {
			t.Fatalf("step %d (kind %d): %d local extents past the cap of %d", step, kind, ts.LocalExtents, ts.CapExtents)
		}
		var local int64
		for _, h := range ts.Heat {
			if h.Local {
				local++
			}
		}
		if local != ts.LocalExtents {
			t.Fatalf("step %d: %d local rows in the heat table, LocalExtents %d", step, local, ts.LocalExtents)
		}
		if kind != 2 && ts.Demotions != demotions {
			t.Fatalf("step %d: a read (kind %d) demoted %d extents", step, kind, ts.Demotions-demotions)
		}
	}
}

// FuzzTierResidency drives random demand reads, prefetch reads and writes
// over a capped tiered stack (tierResidency); the seed corpus runs under
// plain `go test`.
func FuzzTierResidency(f *testing.F) {
	// Heat one extent, write across the tier, prefetch the remote half,
	// then read a run of extents twice each so they promote.
	scripted := []byte{
		0, 3, 0, 15, 0, 3, 0, 15, 0, 3, 0, 15,
		2, 0, 0, 47, 2, 16, 8, 47,
		1, 1, 0, 47, 1, 9, 0, 47, 1, 21, 0, 47,
		0, 5, 0, 31, 0, 5, 0, 31, 0, 6, 0, 31, 0, 6, 0, 31, 0, 7, 0, 31, 0, 7, 0, 31,
	}
	rng := rand.New(rand.NewSource(32))
	random := make([]byte, 600*tierOpBytes)
	rng.Read(random)
	f.Add(scripted)
	f.Add(random)
	f.Fuzz(tierResidency)
}
