package blockdev

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Default stack geometry: the RAID-0 chunk and the tier extent both
// default to 256KB — large enough that sequential runs still merge into
// big per-member commands, small enough that placement tracks hotness at
// a useful grain.
const (
	DefaultStripeChunkBytes = 256 << 10
	DefaultExtentBytes      = 256 << 10
	// DefaultPromoteReads is the read-hotness threshold: a remote extent
	// promotes to the local tier after this many demand reads touch it.
	DefaultPromoteReads = 2
	// maxPrefetchBoost caps the RTT-scaled readahead deepening for
	// remote-resident extents.
	maxPrefetchBoost = 8
)

// TierConfig describes the optional local/remote tier of a Stack.
type TierConfig struct {
	// Enabled turns the tier on; the zero value is a purely local stack.
	Enabled bool
	// Remote is the backing NVMe-oF device model (zero value selects
	// RemoteNVMeConfig).
	Remote Config
	// ExtentBytes is the residency-tracking grain (default 256KB).
	ExtentBytes int64
	// RemoteFrac is the fraction of extents that start remote-resident
	// (deterministically spread over the address space).
	RemoteFrac float64
	// LocalCapBytes bounds the local tier: a promotion or write that takes
	// it past the cap demotes local extents, chosen by a clock over their
	// demand-read heat (maybeDemoteLocked), until it is back at the cap.
	// 0 means uncapped.
	LocalCapBytes int64
	// PromoteReads is the demand-read hotness threshold for promotion
	// (default 2).
	PromoteReads int
	// CrossTierPrefetch makes prefetch reads against remote extents
	// promote them as a side effect (while a capped tier is under its cap:
	// prefetch fills the tier, it never forces a demotion) and deepens
	// readahead windows that cover remote extents by the RTT-scaled boost
	// (see PrefetchBoostFor).
	CrossTierPrefetch bool
}

// StackConfig composes a device stack: Width local devices striped
// RAID-0 at ChunkBytes, optionally tiered over a remote device.
type StackConfig struct {
	// Local is the per-member local device model (zero value selects
	// NVMeConfig). Width > 1 members are named "<name>.<i>".
	Local Config
	// Width is the RAID-0 stripe width (<=1 means a single local device).
	Width int
	// ChunkBytes is the stripe chunk (default 256KB).
	ChunkBytes int64
	// Tier configures the optional local/remote tier.
	Tier TierConfig
}

func (c StackConfig) withDefaults() StackConfig {
	if c.Local.Name == "" {
		c.Local = NVMeConfig()
	}
	if c.Local.BlockSize <= 0 {
		c.Local.BlockSize = 4096
	}
	if c.Width < 1 {
		c.Width = 1
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = DefaultStripeChunkBytes
	}
	if c.ChunkBytes%c.Local.BlockSize != 0 {
		c.ChunkBytes += c.Local.BlockSize - c.ChunkBytes%c.Local.BlockSize
	}
	if c.Tier.Enabled {
		if c.Tier.Remote.Name == "" {
			c.Tier.Remote = RemoteNVMeConfig()
		}
		c.Tier.Remote.BlockSize = c.Local.BlockSize
		if c.Tier.ExtentBytes <= 0 {
			c.Tier.ExtentBytes = DefaultExtentBytes
		}
		if c.Tier.ExtentBytes%c.Local.BlockSize != 0 {
			c.Tier.ExtentBytes += c.Local.BlockSize - c.Tier.ExtentBytes%c.Local.BlockSize
		}
		if c.Tier.PromoteReads <= 0 {
			c.Tier.PromoteReads = DefaultPromoteReads
		}
	}
	return c
}

// extentState is one tier extent's residency and heat: reads counts the
// demand device reads that touched it, on either tier, and the demotion
// clock halves it each time its hand passes.
type extentState struct {
	init  bool
	local bool
	dirty bool
	reads int32
}

// Stack composes member devices behind the Device-shaped API the kernel
// uses: a RAID-0 stripe over Width local devices, optionally tiered over
// a remote NVMe-oF device with per-extent residency. Each member keeps
// its own bandwidth ledgers, queue depth, merge window, and congestion
// backlog — the per-backend queues the plug and lane schedulers dispatch
// into (see StackPlug). A single-member, untiered stack runs the same code
// with one piece per request and is byte-identical to the raw device.
type Stack struct {
	cfg     StackConfig
	members []*Device
	width   int // local members; remote (if any) is members[width]
	remote  int // remote member index, -1 when untiered
	chunk   int64
	extB    int64
	rec     *telemetry.Recorder

	// Tier residency table, lazily grown, and the demotion clock's hand
	// into it; guarded by tmu.
	tmu          sync.Mutex
	ext          []extentState
	hand         int
	localExtents int64
	capExtents   int64
	promoteReads int32
	fracPermille int64

	promotions         int64
	prefetchPromotions int64
	demotions          int64
	copybackBytes      int64
}

// NewStack builds the member devices and the stack over them.
func NewStack(cfg StackConfig) *Stack {
	cfg = cfg.withDefaults()
	st := &Stack{
		cfg:    cfg,
		width:  cfg.Width,
		remote: -1,
		chunk:  cfg.ChunkBytes,
	}
	for i := 0; i < cfg.Width; i++ {
		mc := cfg.Local
		if cfg.Width > 1 {
			mc.Name = fmt.Sprintf("%s.%d", cfg.Local.Name, i)
		}
		st.members = append(st.members, New(mc))
	}
	if cfg.Tier.Enabled {
		st.remote = len(st.members)
		st.members = append(st.members, New(cfg.Tier.Remote))
		st.extB = cfg.Tier.ExtentBytes
		st.capExtents = cfg.Tier.LocalCapBytes / st.extB
		st.promoteReads = int32(cfg.Tier.PromoteReads)
		st.fracPermille = int64(cfg.Tier.RemoteFrac * 1000)
		if st.fracPermille < 0 {
			st.fracPermille = 0
		}
		if st.fracPermille > 1000 {
			st.fracPermille = 1000
		}
	}
	return st
}

// WrapDevice adapts an already-built single device into a (degenerate)
// stack — the compatibility path for callers that construct a Device
// themselves.
func WrapDevice(d *Device) *Stack {
	return &Stack{
		cfg:     StackConfig{Local: d.cfg, Width: 1, ChunkBytes: DefaultStripeChunkBytes},
		members: []*Device{d},
		width:   1,
		remote:  -1,
		chunk:   DefaultStripeChunkBytes,
	}
}

// single reports whether every request maps 1:1 onto one member.
func (st *Stack) single() bool { return len(st.members) == 1 }

// Tiered reports whether the stack has a remote tier.
func (st *Stack) Tiered() bool { return st.remote >= 0 }

// Width reports the local stripe width.
func (st *Stack) Width() int { return st.width }

// NumMembers reports the member device count (locals + remote).
func (st *Stack) NumMembers() int { return len(st.members) }

// Member exposes one member device (0..Width-1 local, then remote).
func (st *Stack) Member(i int) *Device { return st.members[i] }

// Config reports the stack configuration (with defaults applied).
func (st *Stack) Config() StackConfig { return st.cfg }

// BlockSize reports the stack block size (uniform across members).
func (st *Stack) BlockSize() int64 { return st.members[0].BlockSize() }

// SetTelemetry installs the recorder on every member and registers each
// as a telemetry backend, so per-backend command/byte/latency families
// partition the stack totals exactly.
func (st *Stack) SetTelemetry(rec *telemetry.Recorder) {
	st.rec = rec
	for i, m := range st.members {
		m.SetTelemetry(rec)
		if rec != nil && i < telemetry.MaxBackends {
			m.backend = i
			rec.RegisterBackend(i, m.cfg.Name)
		}
	}
}

// SetFaultInjector installs the injector on every member.
func (st *Stack) SetFaultInjector(inj FaultInjector) {
	for _, m := range st.members {
		m.SetFaultInjector(inj)
	}
}

// piece is one member-level fragment of a stack request: pieces cover a
// request in ascending stack-offset order, each wholly on one member.
type piece struct {
	m    int   // member index
	off  int64 // member-device offset
	gOff int64 // stack offset
	n    int64 // bytes
}

// resolveInto appends the pieces of [off, off+bytes) to dst and returns
// it. Placement: tier residency decides local vs remote per extent;
// local spans then stripe across the width at chunk granularity with the
// contiguity-preserving mapping
//
//	chunk i  ->  member i%W, member offset (i/W)*chunk + in-chunk offset
//
// so a member's consecutive stripe chunks stay device-adjacent and merge
// in its plug. Remote spans map flat (same offsets on the remote device).
func (st *Stack) resolveInto(dst []piece, off, bytes int64) []piece {
	if st.single() {
		return append(dst, piece{m: 0, off: off, gOff: off, n: bytes})
	}
	if st.remote >= 0 {
		st.tmu.Lock()
		defer st.tmu.Unlock()
	}
	for bytes > 0 {
		n := bytes
		if st.remote >= 0 {
			e := off / st.extB
			if rem := (e+1)*st.extB - off; n > rem {
				n = rem
			}
			if !st.extLocalLocked(e) {
				dst = append(dst, piece{m: st.remote, off: off, gOff: off, n: n})
				off += n
				bytes -= n
				continue
			}
		}
		m, moff, n := st.stripe(off, n)
		dst = append(dst, piece{m: m, off: moff, gOff: off, n: n})
		off += n
		bytes -= n
	}
	return coalescePieces(dst)
}

// stripe maps the first bytes of the local span [off, off+n) to their
// member: the member, the offset on it, and how many bytes, clipped at the
// chunk edge. Width 1 maps flat.
func (st *Stack) stripe(off, n int64) (m int, moff, clipped int64) {
	if st.width <= 1 {
		return 0, off, n
	}
	ci := off / st.chunk
	if rem := (ci+1)*st.chunk - off; n > rem {
		n = rem
	}
	return int(ci % int64(st.width)), (ci/int64(st.width))*st.chunk + off%st.chunk, n
}

// coalescePieces merges adjacent entries that landed device-contiguous
// on the same member (consecutive extents of one residency, or — after a
// full stripe turn — nothing; stripe chunks on one member are contiguous
// only W chunks apart, which stay separate pieces and re-merge in the
// member plug).
func coalescePieces(ps []piece) []piece {
	out := ps[:0]
	for _, p := range ps {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.m == p.m && last.off+last.n == p.off && last.gOff+last.n == p.gOff {
				last.n += p.n
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

// extLocalLocked reports (lazily initializing) extent e's residency.
func (st *Stack) extLocalLocked(e int64) bool {
	s := st.extAtLocked(e)
	return s.local
}

// extAtLocked returns extent e's state, initializing residency on first
// touch: extents spread deterministically between tiers by RemoteFrac.
func (st *Stack) extAtLocked(e int64) *extentState {
	for int64(len(st.ext)) <= e {
		st.ext = append(st.ext, extentState{})
	}
	s := &st.ext[e]
	if !s.init {
		s.init = true
		s.local = (e*613)%1000 >= st.fracPermille
		if s.local {
			st.localExtents++
		}
	}
	return s
}

// noteRead books read heat for [off, off+bytes) completed at done. A
// demand read heats every extent it touches, on either tier, and promotes
// a remote one once its heat reaches PromoteReads; the heat stays with the
// extent, so a promoted extent enters the tier PromoteReads hot. A
// prefetch read adds no heat. With CrossTierPrefetch it promotes its
// remote extents outright — the prefetched data just crossed the fabric,
// so landing it locally is free — while the tier is under its cap. At the
// cap a landing would be paid for with a demotion of an extent demand
// reads heated, on the evidence of none; that is left to demand heat.
// Promotion books the local-tier write and demotes past the cap.
func (st *Stack) noteRead(done simtime.Time, off, bytes int64, prefetch bool) {
	if st.remote < 0 || bytes <= 0 {
		return
	}
	st.tmu.Lock()
	defer st.tmu.Unlock()
	for e := off / st.extB; e <= (off+bytes-1)/st.extB; e++ {
		s := st.extAtLocked(e)
		if prefetch {
			if !s.local && st.cfg.Tier.CrossTierPrefetch && (st.capExtents <= 0 || st.localExtents < st.capExtents) {
				st.promoteLocked(e, done, true)
			}
			continue
		}
		s.reads++
		if !s.local && s.reads >= st.promoteReads {
			st.promoteLocked(e, done, false)
		}
	}
}

// noteWrite marks the covered extents dirty (and, for remote extents,
// pulls them local: the stack writes new data to the fast tier and
// copies it back on demotion), then demotes past the cap.
func (st *Stack) noteWrite(done simtime.Time, off, bytes int64) {
	if st.remote < 0 || bytes <= 0 {
		return
	}
	st.tmu.Lock()
	defer st.tmu.Unlock()
	for e := off / st.extB; e <= (off+bytes-1)/st.extB; e++ {
		s := st.extAtLocked(e)
		if !s.local {
			s.local = true
			st.localExtents++
		}
		s.dirty = true
	}
	st.maybeDemoteLocked(done)
}

// promoteLocked flips extent e local, books the local-tier fill write
// asynchronously at `at` (the promoted bytes just arrived from the
// remote read; the copy costs local write bandwidth, not a re-read), and
// demotes past the cap.
func (st *Stack) promoteLocked(e int64, at simtime.Time, prefetch bool) {
	st.ext[e].local = true
	st.localExtents++
	st.promotions++
	st.rec.Add(telemetry.CtrTierPromotions, 1)
	if prefetch {
		st.prefetchPromotions++
		st.rec.Add(telemetry.CtrTierPrefetchPromotions, 1)
	}
	for off, end := e*st.extB, (e+1)*st.extB; off < end; {
		m, moff, n := st.stripe(off, end-off)
		st.members[m].AccessAsync(at, OpWrite, moff, n) //nolint:errcheck // best-effort fill
		off += n
	}
	st.maybeDemoteLocked(at)
}

// maybeDemoteLocked brings a local tier that is over its cap back to the
// cap with a clock over demand-read heat (GCLOCK). The hand walks the
// extent table, skipping remote and untouched extents; at a local extent
// with heat it halves the heat and moves on, and it demotes the first
// local extent it finds cold. The halving is the decay: an extent read h
// times and then no more is demoted at the hand's bits.Len(h)+1-th visit,
// within that many passes. Dirty extents copy back to the remote tier;
// clean ones just flip residency.
func (st *Stack) maybeDemoteLocked(at simtime.Time) {
	for st.capExtents > 0 && st.localExtents > st.capExtents {
		if st.hand >= len(st.ext) {
			st.hand = 0
		}
		e := st.hand
		st.hand++
		s := &st.ext[e]
		if !s.local {
			continue
		}
		if s.reads > 0 {
			s.reads >>= 1
			continue
		}
		if s.dirty {
			st.members[st.remote].AccessAsync(at, OpWrite, int64(e)*st.extB, st.extB) //nolint:errcheck // best-effort copyback
			st.copybackBytes += st.extB
			st.rec.Add(telemetry.CtrTierCopybackBytes, st.extB)
			s.dirty = false
		}
		s.local = false
		st.localExtents--
		st.demotions++
		st.rec.Add(telemetry.CtrTierDemotions, 1)
	}
}

// PrefetchBoostFor reports the readahead deepening factor for a stack
// range: 1 for local-resident (or untiered) ranges; for ranges covering
// remote extents, 1 + ceil(extra RTT / local read latency), capped — the
// Leap-style rule that a prefetch window must run far enough ahead to
// hide the fabric round trip behind streaming bandwidth.
func (st *Stack) PrefetchBoostFor(off, bytes int64) int64 {
	if st.remote < 0 || !st.cfg.Tier.CrossTierPrefetch || bytes <= 0 {
		return 1
	}
	localLat := st.cfg.Local.ReadLatency
	extra := st.cfg.Tier.Remote.ReadLatency - localLat
	if extra <= 0 || localLat <= 0 {
		return 1
	}
	remoteSeen := false
	st.tmu.Lock()
	for e := off / st.extB; e <= (off+bytes-1)/st.extB; e++ {
		if !st.extLocalLocked(e) {
			remoteSeen = true
			break
		}
	}
	st.tmu.Unlock()
	if !remoteSeen {
		return 1
	}
	boost := 1 + (int64(extra)+int64(localLat)-1)/int64(localLat)
	if boost > maxPrefetchBoost {
		boost = maxPrefetchBoost
	}
	return boost
}

// Backlog reports the stack's combined-lane backlog: the worst member's,
// since stack requests can wait at most on their slowest member. Prefer
// BacklogFor for run-targeted congestion decisions — one saturated
// member must not throttle work aimed at the others.
func (st *Stack) Backlog(at simtime.Time) simtime.Duration {
	var b simtime.Duration
	for _, m := range st.members {
		if mb := m.Backlog(at); mb > b {
			b = mb
		}
	}
	return b
}

// BacklogFor reports the backlog of the specific backends a request on
// [off, off+bytes) would dispatch to — the per-backend congestion signal
// the vfs prefetch admission uses.
func (st *Stack) BacklogFor(at simtime.Time, off, bytes int64) simtime.Duration {
	var buf [8]piece
	var b simtime.Duration
	var seen uint64
	for _, p := range st.resolveInto(buf[:0], off, bytes) {
		if seen&(1<<uint(p.m)) != 0 {
			continue
		}
		seen |= 1 << uint(p.m)
		if mb := st.members[p.m].Backlog(at); mb > b {
			b = mb
		}
	}
	return b
}

// SyncCost conservatively bounds a blocking request's idle-stack cost by
// the most expensive member's — the vfs uses it only as a waiting cap.
func (st *Stack) SyncCost(op Op, bytes int64) simtime.Duration {
	var c simtime.Duration
	for _, m := range st.members {
		if mc := m.SyncCost(op, bytes); mc > c {
			c = mc
		}
	}
	return c
}

// preflight consults the injector for every piece before any is issued,
// so a request either moves every byte or none (the single-device failure
// atomicity callers already rely on). On the first failing piece it
// returns that piece's length and the fault.
func (st *Stack) preflight(op Op, pieces []piece) (int64, error) {
	for _, p := range pieces {
		if err := st.members[p.m].inject(op, p.off, p.n); err != nil {
			return p.n, err
		}
	}
	return 0, nil
}

// accessPieces issues one blocking request, already resolved into pieces:
// each piece reserves its member's priority lane in parallel from the
// caller's current time and the caller blocks until the slowest piece
// completes.
func (st *Stack) accessPieces(tl *simtime.Timeline, op Op, pieces []piece) error {
	if n, err := st.preflight(op, pieces); err != nil {
		return failSync(tl, err, n)
	}
	start := tl.Now()
	sp := telemetry.Current(tl)
	var maxDone simtime.Time
	for _, p := range pieces {
		if done := st.members[p.m].reserveSync(sp, op, p.n, 1, start); done > maxDone {
			maxDone = done
		}
	}
	tl.WaitUntil(maxDone, simtime.WaitIO)
	return nil
}

// Access performs one blocking request against the stack (see
// accessPieces), all-or-nothing under injected faults.
func (st *Stack) Access(tl *simtime.Timeline, op Op, off, bytes int64) error {
	var buf [8]piece
	if err := st.accessPieces(tl, op, st.resolveInto(buf[:0], off, bytes)); err != nil {
		return err
	}
	if op == OpWrite {
		st.noteWrite(tl.Now(), off, bytes)
	}
	return nil
}

// AccessAsync reserves asynchronous stack time for one request submitted
// at `at`, returning the slowest piece's completion. Same all-or-nothing
// fault pre-flight as Access.
func (st *Stack) AccessAsync(at simtime.Time, op Op, off, bytes int64) (simtime.Time, error) {
	var buf [8]piece
	pieces := st.resolveInto(buf[:0], off, bytes)
	if _, err := st.preflight(op, pieces); err != nil {
		return at, err
	}
	var maxDone simtime.Time
	for _, p := range pieces {
		if done, _, _ := st.members[p.m].reserveAsync(op, p.n, at); done > maxDone {
			maxDone = done
		}
	}
	if op == OpWrite {
		st.noteWrite(maxDone, off, bytes)
	}
	return maxDone, nil
}

// Stats aggregates the member counters (a single-member stack reports
// the member verbatim). Busy is the slowest member's occupancy — the
// stack's critical path.
func (st *Stack) Stats() Stats {
	if st.single() {
		return st.members[0].Stats()
	}
	names := make([]string, len(st.members))
	var agg Stats
	for i, m := range st.members {
		s := m.Stats()
		names[i] = s.Name
		agg.ReadOps += s.ReadOps
		agg.WriteOps += s.WriteOps
		agg.ReadBytes += s.ReadBytes
		agg.WriteBytes += s.WriteBytes
		if s.Busy > agg.Busy {
			agg.Busy = s.Busy
		}
		agg.InjectedFaults += s.InjectedFaults
		agg.PlugSegments += s.PlugSegments
		agg.PlugCommands += s.PlugCommands
		agg.MergedSegments += s.MergedSegments
	}
	agg.Name = "stack(" + strings.Join(names, "+") + ")"
	return agg
}

// MemberStats snapshots each member device, locals first.
func (st *Stack) MemberStats() []Stats {
	out := make([]Stats, len(st.members))
	for i, m := range st.members {
		out[i] = m.Stats()
	}
	return out
}

// ExtentHeat is one tier extent's residency and heat, for the admin
// plane's heat table.
type ExtentHeat struct {
	Extent int64 `json:"extent"`
	Local  bool  `json:"local"`
	Dirty  bool  `json:"dirty"`
	Reads  int32 `json:"reads"`
}

// TierStats snapshots the tier machinery. LocalExtents is the occupancy
// counter the cap is held against; the local rows of a full heat table
// count the same extents. Hand is the extent the demotion clock looks at
// next.
type TierStats struct {
	Enabled            bool         `json:"enabled"`
	ExtentBytes        int64        `json:"extent_bytes"`
	TrackedExtents     int64        `json:"tracked_extents"`
	LocalExtents       int64        `json:"local_extents"`
	RemoteExtents      int64        `json:"remote_extents"`
	CapExtents         int64        `json:"cap_extents"`
	Hand               int64        `json:"hand"`
	Promotions         int64        `json:"promotions"`
	PrefetchPromotions int64        `json:"prefetch_promotions"`
	Demotions          int64        `json:"demotions"`
	CopybackBytes      int64        `json:"copyback_bytes"`
	Heat               []ExtentHeat `json:"heat,omitempty"`
}

// TierStats snapshots residency, promotion/demotion totals, the demotion
// clock's hand, and the hottest-extent heat table (up to heatTop entries
// by read heat, then extent; all of them for heatTop <= 0).
func (st *Stack) TierStats(heatTop int) TierStats {
	ts := TierStats{Enabled: st.remote >= 0, ExtentBytes: st.extB}
	if st.remote < 0 {
		return ts
	}
	st.tmu.Lock()
	defer st.tmu.Unlock()
	ts.LocalExtents = st.localExtents
	ts.CapExtents = st.capExtents
	ts.Hand = int64(st.hand)
	ts.Promotions = st.promotions
	ts.PrefetchPromotions = st.prefetchPromotions
	ts.Demotions = st.demotions
	ts.CopybackBytes = st.copybackBytes
	var heat []ExtentHeat
	for e := range st.ext {
		s := &st.ext[e]
		if !s.init {
			continue
		}
		ts.TrackedExtents++
		if !s.local {
			ts.RemoteExtents++
		}
		heat = append(heat, ExtentHeat{Extent: int64(e), Local: s.local, Dirty: s.dirty, Reads: s.reads})
	}
	sort.Slice(heat, func(i, j int) bool {
		if heat[i].Reads != heat[j].Reads {
			return heat[i].Reads > heat[j].Reads
		}
		return heat[i].Extent < heat[j].Extent
	})
	if heatTop > 0 && len(heat) > heatTop {
		heat = heat[:heatTop]
	}
	ts.Heat = heat
	return ts
}
