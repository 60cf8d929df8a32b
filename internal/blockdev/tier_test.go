package blockdev

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// The tier's one rule (DESIGN.md §16): residency moves one way. A read
// promotes a remote extent into free local capacity — demand heat at
// promoteHeat, or a cross-tier prefetch — and a write lands on whichever
// member already holds its extent. Nothing demotes.

const tierExt = ExtentSize

// tierStack builds a width-2 stack over n extents of tierExt bytes,
// remoteFrac of them starting remote, capped at capExt extents; capExt < 0
// caps it at exactly what starts local. Every extent takes its residency
// before the stack is returned.
func tierStack(n, capExt int64, remoteFrac float64) *Stack {
	if capExt < 0 {
		capExt = layoutLocal(n, remoteFrac)
	}
	st := tierStackLazy(remoteFrac, capExt)
	st.BacklogFor(0, 0, n*tierExt) // first touch: every extent takes its residency
	return st
}

// tierStackLazy is tierStack with no extent touched: each takes its layout
// residency when a request first reaches it.
func tierStackLazy(remoteFrac float64, capExt int64) *Stack {
	cfg := testStripeConfig(2)
	cfg.Tier = TierConfig{Enabled: true, Remote: testConfig(),
		RemoteFrac: remoteFrac, CrossTierPrefetch: true, LocalCapBytes: capExt * tierExt}
	return NewStack(cfg)
}

// layoutLocal counts the extents of n that the layout makes local.
func layoutLocal(n int64, remoteFrac float64) int64 {
	return tierStack(n, 0, remoteFrac).TierStats(0).LocalExtents
}

// demandRead books one demand read of extent e completing at at.
func demandRead(st *Stack, e int64, at simtime.Time) { st.noteRead(at, e*tierExt, tierExt, false) }

// residency reports every touched extent's residency.
func residency(st *Stack) map[int64]bool {
	m := map[int64]bool{}
	for _, h := range st.TierStats(0).Heat {
		m[h.Extent] = h.Local
	}
	return m
}

// A write keeps residency: writing over the whole tier, twice, promotes
// nothing, moves no extent, and the remote member takes the bytes of
// every remote extent each time — on an uncapped tier and on one at its
// cap alike.
func TestTierWritesKeepResidency(t *testing.T) {
	const n = 64
	for _, capExt := range []int64{0, -1} {
		st := tierStack(n, capExt, 0.5)
		before, ts0 := residency(st), st.TierStats(0)
		if ts0.RemoteExtents == 0 || ts0.LocalExtents == 0 {
			t.Fatalf("cap %d: setup has %d local and %d remote extents, want both", capExt, ts0.LocalExtents, ts0.RemoteExtents)
		}
		tl := simtime.NewTimeline(0)
		for w := int64(1); w <= 2; w++ {
			if err := st.Access(tl, OpWrite, 0, n*tierExt); err != nil {
				t.Fatal(err)
			}
			ts := st.TierStats(0)
			if ts.LocalExtents != ts0.LocalExtents || ts.Promotions != 0 {
				t.Errorf("cap %d, write %d: %d local extents and %d promotions, want %d and 0",
					capExt, w, ts.LocalExtents, ts.Promotions, ts0.LocalExtents)
			}
			moved := 0
			for e, local := range residency(st) {
				if local != before[e] {
					moved++
				}
			}
			if moved != 0 {
				t.Errorf("cap %d, write %d: %d extents changed residency", capExt, w, moved)
			}
			remote := st.MemberStats()[st.NumMembers()-1]
			if want := w * ts0.RemoteExtents * tierExt; remote.WriteBytes != want {
				t.Errorf("cap %d, write %d: remote member took %d bytes, want %d", capExt, w, remote.WriteBytes, want)
			}
		}
	}
}

// TestTierPromotionZeroAlloc: rounds of demand reads that heat every
// extent and promote remote ones under the cap run in place on the extent
// table and allocate nothing.
func TestTierPromotionZeroAlloc(t *testing.T) {
	const n = 64
	capExt := layoutLocal(n, 0.5) + n/8
	var st *Stack
	var at simtime.Time
	round := func() {
		for e := int64(0); e < n; e++ {
			at++
			demandRead(st, e, at)
		}
	}
	var best float64 = -1
	for try := 0; try < 3; try++ {
		st = tierStack(n, capExt, 0.5)
		allocs := testing.AllocsPerRun(promoteHeat, round)
		if best < 0 || allocs < best {
			best = allocs
		}
		if ts := st.TierStats(0); ts.Promotions != n/8 || ts.LocalExtents != capExt {
			t.Fatalf("the measured rounds made %d promotions to %d local extents, want %d to the cap of %d",
				ts.Promotions, ts.LocalExtents, n/8, capExt)
		}
	}
	if best != 0 {
		t.Errorf("rounds of demand reads that promote: %v allocs, want 0", best)
	}
}

// tierOpBytes is the size of one FuzzTierResidency operation.
const tierOpBytes = 4

// tierResidency interprets prog, four bytes an operation — kind, extent,
// block offset, length in blocks — as demand reads, prefetch reads and
// writes over two capped half-remote stacks of n extents: one with every
// extent touched up front and room for four promotions over the layout's
// local share, and one that lets each extent take its residency when first
// reached, capped below that share. After every step it checks, on both, that an
// extent's residency differs from the one the layout gives it on first
// touch only by a flip remote → local, that the flips equal Promotions,
// that none happened while the tier was at its cap, and that the
// occupancy counter agrees with the heat table; on the touched-up-front
// stack also that the tier holds at most its cap.
func tierResidency(t *testing.T, prog []byte) {
	const n, blk = 32, 4096
	type stack struct {
		st    *Stack
		p     *StackPlug
		tl    *simtime.Timeline
		flips int64
	}
	first := residency(tierStack(n, 0, 0.5)) // the layout: what each extent takes on first touch
	var stacks [2]stack
	for i, st := range []*Stack{tierStack(n, layoutLocal(n, 0.5)+4, 0.5), tierStackLazy(0.5, layoutLocal(n, 0.5)/2)} {
		stacks[i] = stack{st: st, p: st.NewPlug(PlugConfig{}), tl: simtime.NewTimeline(0)}
	}
	for step := 0; len(prog) >= tierOpBytes; step++ {
		kind, e, b, l := prog[0]%3, int64(prog[1])%n, int64(prog[2])%(tierExt/blk), int64(prog[3])%(2*tierExt/blk)+1
		prog = prog[tierOpBytes:]
		off := e*tierExt + b*blk
		bytes := min(l*blk, n*tierExt-off)
		for i := range stacks {
			s := &stacks[i]
			before := s.st.TierStats(0)
			var err error
			switch kind {
			case 0, 1:
				_, err = readThrough(s.p, s.tl, kind == 1, off, bytes, 0)
			case 2:
				err = s.st.Access(s.tl, OpWrite, off, bytes)
			}
			if err != nil {
				t.Fatalf("stack %d, step %d: %v", i, step, err)
			}
			ts := s.st.TierStats(0)
			var local, flips int64
			for _, h := range ts.Heat {
				if h.Local {
					local++
				}
				switch {
				case first[h.Extent] && !h.Local:
					t.Fatalf("stack %d, step %d (kind %d): extent %d went local -> remote", i, step, kind, h.Extent)
				case !first[h.Extent] && h.Local:
					flips++
				}
			}
			if local != ts.LocalExtents {
				t.Fatalf("stack %d, step %d: %d local rows in the heat table, LocalExtents %d", i, step, local, ts.LocalExtents)
			}
			if flips != ts.Promotions {
				t.Fatalf("stack %d, step %d (kind %d): %d extents flipped remote -> local, %d promotions", i, step, kind, flips, ts.Promotions)
			}
			// Occupancy never falls, so a step promotes at most the room
			// the tier had when it began.
			if room := max(0, ts.CapExtents-before.LocalExtents); flips-s.flips > room {
				t.Fatalf("stack %d, step %d (kind %d): %d promotions with room for %d (%d local, cap %d)",
					i, step, kind, flips-s.flips, room, before.LocalExtents, ts.CapExtents)
			}
			s.flips = flips
			if i == 0 && ts.LocalExtents > ts.CapExtents {
				t.Fatalf("step %d (kind %d): %d local extents past the cap of %d", step, kind, ts.LocalExtents, ts.CapExtents)
			}
		}
	}
}

// FuzzTierResidency drives random demand reads, prefetch reads and writes
// over capped tiered stacks (tierResidency); the seed corpus runs under
// plain `go test`.
func FuzzTierResidency(f *testing.F) {
	// Heat a remote extent and prefetch another, so both promote into
	// either tier's room, write across the tier, prefetch runs that hold
	// remote extents, then read a run of extents twice each.
	scripted := []byte{0, 0, 0, 63, 0, 0, 0, 63, 1, 2, 0, 63}
	for e := byte(0); e < 32; e += 2 {
		scripted = append(scripted, 2, e, 0, 127)
	}
	scripted = append(scripted,
		1, 1, 0, 127, 1, 9, 0, 127, 1, 21, 0, 127,
		0, 5, 0, 63, 0, 5, 0, 63, 0, 6, 0, 63, 0, 6, 0, 63, 0, 7, 0, 63, 0, 7, 0, 63,
	)
	rng := rand.New(rand.NewSource(32))
	random := make([]byte, 600*tierOpBytes)
	rng.Read(random)
	f.Add(scripted)
	f.Add(random)
	f.Fuzz(tierResidency)
}
