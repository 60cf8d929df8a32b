package telemetry

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/simtime"
)

// Scorecard keeps windowed prefetch-effectiveness accounting per inode
// and per tenant: a bounded ring of fixed virtual-time windows, each
// scoring
//
//	accuracy   = used prefetched pages / issued prefetched pages
//	coverage   = prefetch-hit reads   / total reads
//	pollution  = wasted (evicted-unused) prefetched pages / evicted pages
//	timeliness = prefetch-to-first-use virtual latency (p50/p99)
//
// partitioned by origin, so the online signal tells demand, kernel
// readahead, coverage, crossos, and ring-prefetch traffic apart — the
// scoring substrate ROADMAP items 2 and 3 (predictor bandit, per-tenant
// eviction policy) consume.
//
// Concurrency: each of the three card tables has one mutex. The hot-path
// methods take it, never allocate after a card's first touch, and every
// method no-ops on a nil *Scorecard — disabled cost is one nil check,
// exactly like the Recorder.
//
// Bounding: a table holds at most scoreMaxCards cards; past the bound,
// traffic books to the table's one overflow card (key OverflowKey) rather
// than being dropped, so totals stay exact and the audit's partition
// identities hold regardless of inode cardinality.
type Scorecard struct {
	files   scoreTable
	tenants scoreTable
	// arms holds the per-(inode,arm) shadow cards of the predictor
	// ensemble, keyed ino<<armKeyBits|arm. Every arm books its
	// would-have-prefetched candidates here under the crossos origin
	// column, so the same accuracy/coverage derivations score arms that
	// never touched the cache.
	arms scoreTable
}

// armKeyBits is the arm field width of the composite (inode,arm) card
// key: key = ino<<armKeyBits | arm.
const armKeyBits = 3

// OverflowKey is the card key absorbing traffic past a table's card
// bound.
const OverflowKey = -1

// A card scores windows scoreWindowWidth of virtual time wide and keeps
// the trailing scoreWindows of them; a table tracks at most scoreMaxCards
// cards, the rest share its overflow card.
const (
	scoreWindowWidth = 10 * simtime.Millisecond
	scoreWindows     = 8
	scoreMaxCards    = 512
)

// NewScorecard returns an empty scorecard.
func NewScorecard() *Scorecard {
	s := &Scorecard{}
	s.files.cards = make(map[int64]*scoreCard)
	s.tenants.cards = make(map[int64]*scoreCard)
	s.arms.cards = make(map[int64]*scoreCard)
	return s
}

// scoreTable is one card table: a bounded card map plus the shared
// overflow card created on first demand, under one mutex.
type scoreTable struct {
	mu       sync.Mutex
	cards    map[int64]*scoreCard
	overflow *scoreCard
}

// scoreCard is one key's (inode's or tenant's) window ring plus exact
// lifetime totals (the totals feed the snapshot differ and the audit
// reconciliation; windows feed the online scores).
type scoreCard struct {
	key     int64
	windows []scoreWindow // slot = epoch % len
	totals  scoreWindow   // epoch unused; never reset
}

// scoreWindow is one fixed virtual-time window's books. Everything is
// inline (arrays, no pointers) so rotating a slot is a plain overwrite
// with no allocation.
type scoreWindow struct {
	epoch int64 // window index (start = epoch*width); slot valid iff set

	issued [int(NumOrigins)]int64 // pages inserted, by origin
	used   [int(NumOrigins)]int64 // prefetch credit consumed by readers
	wasted [int(NumOrigins)]int64 // prefetch credit destroyed by eviction

	evicted   int64 // pages evicted (pollution denominator)
	reads     int64 // lookup calls
	hitReads  int64 // lookups that consumed >= 1 prefetched page
	readPages int64 // pages requested by lookups
	hitPages  int64 // prefetched pages consumed by lookups
	latePages int64 // consumed while the backing I/O was still in flight

	// Prefetch-to-first-use latency, log2-bucketed like Histogram but
	// plain int64 under the table lock.
	latBuckets [histBuckets]int64
	latCount   int64
	latSum     int64
}

func (w *scoreWindow) observeLat(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	w.latBuckets[idx]++
	w.latCount++
	w.latSum += v
}

// epochOf is the window index containing t.
func (s *Scorecard) epochOf(t simtime.Time) int64 {
	return int64(t) / int64(scoreWindowWidth)
}

// card returns the table's card for key, creating it while under the
// bound and falling back to the overflow card past it. Caller holds
// st.mu.
func (st *scoreTable) card(key int64) *scoreCard {
	if c := st.cards[key]; c != nil {
		return c
	}
	if len(st.cards) < scoreMaxCards {
		c := &scoreCard{key: key, windows: make([]scoreWindow, scoreWindows)}
		st.cards[key] = c
		return c
	}
	if st.overflow == nil {
		st.overflow = &scoreCard{key: OverflowKey, windows: make([]scoreWindow, scoreWindows)}
	}
	return st.overflow
}

// book runs fn on key's card window for epoch and on its totals, under the
// table lock.
func (st *scoreTable) book(key, epoch int64, fn func(w *scoreWindow)) {
	st.mu.Lock()
	c := st.card(key)
	fn(c.window(epoch))
	fn(&c.totals)
	st.mu.Unlock()
}

// window returns the card's slot for epoch, resetting a stale slot in
// place (the ring keeps only the trailing scoreWindows epochs). Caller holds
// the table lock. Out-of-order updates older than the ring's horizon
// land in the slot their epoch maps to only if it still holds that
// epoch; otherwise they book into the current slot's predecessorless
// reset — totals stay exact either way.
func (c *scoreCard) window(epoch int64) *scoreWindow {
	w := &c.windows[epoch%int64(len(c.windows))]
	if w.epoch != epoch {
		*w = scoreWindow{epoch: epoch}
	}
	return w
}

// update runs fn on the (ino|tenant) card pair's windows and totals for
// the event time now.
func (s *Scorecard) update(now simtime.Time, ino int64, tenant int, fn func(w *scoreWindow)) {
	epoch := s.epochOf(now)
	s.files.book(ino, epoch, fn)
	s.tenants.book(int64(tenant), epoch, fn)
}

// Issued books n pages inserted under origin into ino's / tenant's
// current window (demand insertions included: they form the partition's
// complement). Nil-safe; no-op when n <= 0.
func (s *Scorecard) Issued(now simtime.Time, ino int64, tenant int, origin Origin, n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.update(now, ino, tenant, func(w *scoreWindow) { w.issued[origin] += n })
}

// Used books one prefetched page's first use with its
// prefetch-to-first-use virtual latency. Nil-safe.
func (s *Scorecard) Used(now simtime.Time, ino int64, tenant int, origin Origin, latency int64) {
	if s == nil {
		return
	}
	s.update(now, ino, tenant, func(w *scoreWindow) {
		w.used[origin]++
		w.observeLat(latency)
	})
}

// Wasted books n prefetched pages of an origin evicted unused. Nil-safe.
func (s *Scorecard) Wasted(now simtime.Time, ino int64, tenant int, origin Origin, n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.update(now, ino, tenant, func(w *scoreWindow) { w.wasted[origin] += n })
}

// Evicted books n pages leaving the cache (the pollution denominator).
// Nil-safe.
func (s *Scorecard) Evicted(now simtime.Time, ino int64, tenant int, n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.update(now, ino, tenant, func(w *scoreWindow) { w.evicted += n })
}

// Read books one lookup of pages total pages, of which hitPages consumed
// prefetch credit and latePages arrived before their backing I/O was
// done. Nil-safe; no-op when pages <= 0.
func (s *Scorecard) Read(now simtime.Time, ino int64, tenant int, pages, hitPages, latePages int64) {
	if s == nil || pages <= 0 {
		return
	}
	s.update(now, ino, tenant, func(w *scoreWindow) {
		w.reads++
		if hitPages > 0 {
			w.hitReads++
		}
		w.readPages += pages
		w.hitPages += hitPages
		w.latePages += latePages
	})
}

// updateArm runs fn on the (ino,arm) shadow card's window and totals.
// Arm cards have no tenant pair — shadow candidates never touch the
// cache, so there is no tenant residency to attribute.
func (s *Scorecard) updateArm(now simtime.Time, ino int64, arm Arm, fn func(w *scoreWindow)) {
	s.arms.book(ino<<armKeyBits|int64(arm), s.epochOf(now), fn)
}

// ArmIssued books n pages an arm would have prefetched (shadow mode)
// into the (ino,arm) card's current window, under the crossos origin
// column. Nil-safe; no-op when n <= 0.
func (s *Scorecard) ArmIssued(now simtime.Time, ino int64, arm Arm, n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.updateArm(now, ino, arm, func(w *scoreWindow) { w.issued[OriginCrossOS] += n })
}

// ArmUsed books n shadow-predicted pages of an arm that a later access
// overlapped (the shadow analogue of a prefetch hit). Nil-safe.
func (s *Scorecard) ArmUsed(now simtime.Time, ino int64, arm Arm, n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.updateArm(now, ino, arm, func(w *scoreWindow) { w.used[OriginCrossOS] += n })
}

// ArmWasted books n shadow-predicted pages of an arm that expired
// unconsumed (aged out of the arm's candidate ring). Nil-safe.
func (s *Scorecard) ArmWasted(now simtime.Time, ino int64, arm Arm, n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.updateArm(now, ino, arm, func(w *scoreWindow) { w.wasted[OriginCrossOS] += n })
}

// ArmRead books one observed access against an arm's shadow card:
// reads++ always, hitReads++ when the access overlapped at least one of
// the arm's outstanding candidates — the coverage numerator. Nil-safe.
func (s *Scorecard) ArmRead(now simtime.Time, ino int64, arm Arm, pages, hitPages int64) {
	if s == nil || pages <= 0 {
		return
	}
	s.updateArm(now, ino, arm, func(w *scoreWindow) {
		w.reads++
		if hitPages > 0 {
			w.hitReads++
		}
		w.readPages += pages
		w.hitPages += hitPages
	})
}

// ArmTotals sums every (inode,arm) shadow card's lifetime
// (issued, used, wasted) for one arm — reconciled by the audit against
// the recorder's shadow counters when both planes are enabled.
func (s *Scorecard) ArmTotals(a Arm) (issued, used, wasted int64) {
	if s == nil {
		return 0, 0, 0
	}
	st := &s.arms
	st.mu.Lock()
	defer st.mu.Unlock()
	for key, c := range st.cards {
		if Arm(key&(1<<armKeyBits-1)) != a {
			continue
		}
		issued += c.totals.issued[OriginCrossOS]
		used += c.totals.used[OriginCrossOS]
		wasted += c.totals.wasted[OriginCrossOS]
	}
	// The overflow card mixes arms; it cannot be attributed here, so
	// shadow books must stay under the card bound for exactness (the
	// audit only reconciles arms when no overflow card exists).
	return issued, used, wasted
}

// ArmOverflowed reports whether the arm table spilled into its overflow
// card (per-arm attribution no longer exact). Nil-safe.
func (s *Scorecard) ArmOverflowed() bool {
	if s == nil {
		return false
	}
	s.arms.mu.Lock()
	defer s.arms.mu.Unlock()
	return s.arms.overflow != nil
}

// OriginTotals sums every inode card's lifetime (inserted, used, wasted)
// for one origin — the quantity the audit reconciles against the
// Recorder's per-origin counters (the cards partition traffic by inode,
// overflow included, so the sum is exact).
func (s *Scorecard) OriginTotals(o Origin) (issued, used, wasted int64) {
	if s == nil {
		return 0, 0, 0
	}
	st := &s.files
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, c := range st.cards {
		issued += c.totals.issued[o]
		used += c.totals.used[o]
		wasted += c.totals.wasted[o]
	}
	if c := st.overflow; c != nil {
		issued += c.totals.issued[o]
		used += c.totals.used[o]
		wasted += c.totals.wasted[o]
	}
	return issued, used, wasted
}

// WindowScore is one window's (or one card's lifetime) exported books
// and derived scores.
type WindowScore struct {
	// Start and End bound the window in virtual time; both zero on the
	// lifetime totals entry.
	Start simtime.Time `json:"start"`
	End   simtime.Time `json:"end"`

	// Issued, Used, and Wasted are per-origin page counts (origin-name
	// keyed; zero-valued origins omitted).
	Issued map[string]int64 `json:"issued,omitempty"`
	Used   map[string]int64 `json:"used,omitempty"`
	Wasted map[string]int64 `json:"wasted,omitempty"`

	Evicted   int64 `json:"evicted"`
	Reads     int64 `json:"reads"`
	HitReads  int64 `json:"hit_reads"`
	ReadPages int64 `json:"read_pages"`
	HitPages  int64 `json:"hit_pages"`
	LatePages int64 `json:"late_pages"`

	// Accuracy = prefetch used / prefetch issued; Coverage = hit reads /
	// reads; Pollution = prefetch wasted / evicted. Zero when the
	// denominator is zero.
	Accuracy  float64 `json:"accuracy"`
	Coverage  float64 `json:"coverage"`
	Pollution float64 `json:"pollution"`

	// TimelinessP50/P99 are log2-resolution upper bounds of the
	// prefetch-to-first-use latency distribution; Count/Sum are exact.
	TimelinessP50   int64 `json:"timeliness_p50"`
	TimelinessP99   int64 `json:"timeliness_p99"`
	TimelinessCount int64 `json:"timeliness_count"`
	TimelinessSum   int64 `json:"timeliness_sum"`
}

// CardScore is one inode's (or tenant's, or (inode,arm) shadow)
// scorecard: lifetime totals plus the surviving trailing windows, oldest
// first. Arm shadow cards use the composite key ino<<armKeyBits|arm and
// additionally carry the decoded Ino and Arm fields.
type CardScore struct {
	Key     int64         `json:"key"` // inode ID / tenant ID / composite; -1 = overflow
	Ino     int64         `json:"ino,omitempty"`
	Arm     string        `json:"arm,omitempty"`
	Totals  WindowScore   `json:"totals"`
	Windows []WindowScore `json:"windows,omitempty"`
}

// ScorecardSnapshot is a point-in-time export of every card, sorted by
// key — identical inputs produce byte-identical JSON.
type ScorecardSnapshot struct {
	WindowWidth simtime.Duration `json:"window_width"`
	Windows     int              `json:"windows"`
	Files       []CardScore      `json:"files"`
	Tenants     []CardScore      `json:"tenants"`
	// Arms are the predictor ensemble's per-(inode,arm) shadow cards
	// (empty unless the ensemble runs).
	Arms []CardScore `json:"arms,omitempty"`
}

func (w *scoreWindow) export(width simtime.Duration, isTotals bool) WindowScore {
	out := WindowScore{
		Evicted:   w.evicted,
		Reads:     w.reads,
		HitReads:  w.hitReads,
		ReadPages: w.readPages,
		HitPages:  w.hitPages,
		LatePages: w.latePages,
	}
	if !isTotals {
		out.Start = simtime.Time(w.epoch * int64(width))
		out.End = out.Start.Add(width)
	}
	var pfIssued, pfUsed, pfWasted int64
	for o := Origin(0); o < NumOrigins; o++ {
		if w.issued[o] != 0 {
			if out.Issued == nil {
				out.Issued = make(map[string]int64, int(NumOrigins))
			}
			out.Issued[o.String()] = w.issued[o]
		}
		if w.used[o] != 0 {
			if out.Used == nil {
				out.Used = make(map[string]int64, int(NumOrigins))
			}
			out.Used[o.String()] = w.used[o]
		}
		if w.wasted[o] != 0 {
			if out.Wasted == nil {
				out.Wasted = make(map[string]int64, int(NumOrigins))
			}
			out.Wasted[o.String()] = w.wasted[o]
		}
		if o.IsPrefetch() {
			pfIssued += w.issued[o]
			pfUsed += w.used[o]
			pfWasted += w.wasted[o]
		}
	}
	if pfIssued > 0 {
		out.Accuracy = float64(pfUsed) / float64(pfIssued)
	}
	if out.Reads > 0 {
		out.Coverage = float64(out.HitReads) / float64(out.Reads)
	}
	if out.Evicted > 0 {
		out.Pollution = float64(pfWasted) / float64(out.Evicted)
	}
	out.TimelinessCount = w.latCount
	out.TimelinessSum = w.latSum
	if w.latCount > 0 {
		out.TimelinessP50, out.TimelinessP99 = quantiles(&w.latBuckets, w.latCount)
	}
	return out
}

func (c *scoreCard) export(width simtime.Duration) CardScore {
	out := CardScore{Key: c.key, Totals: c.totals.export(width, true)}
	// Surviving windows, oldest epoch first; untouched slots (epoch 0
	// with no books) are skipped.
	idx := make([]int, 0, len(c.windows))
	for i := range c.windows {
		if w := &c.windows[i]; w.reads != 0 || w.evicted != 0 || w.latCount != 0 ||
			w.issuedAny() {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return c.windows[idx[a]].epoch < c.windows[idx[b]].epoch })
	for _, i := range idx {
		out.Windows = append(out.Windows, c.windows[i].export(width, false))
	}
	return out
}

func (w *scoreWindow) issuedAny() bool {
	for o := 0; o < int(NumOrigins); o++ {
		if w.issued[o] != 0 || w.used[o] != 0 || w.wasted[o] != 0 {
			return true
		}
	}
	return false
}

func (st *scoreTable) export(width simtime.Duration) []CardScore {
	st.mu.Lock()
	cards := make([]*scoreCard, 0, len(st.cards)+1)
	for _, c := range st.cards {
		cards = append(cards, c)
	}
	if st.overflow != nil {
		cards = append(cards, st.overflow)
	}
	st.mu.Unlock()
	sort.Slice(cards, func(a, b int) bool { return cards[a].key < cards[b].key })
	out := make([]CardScore, 0, len(cards))
	for _, c := range cards {
		out = append(out, c.export(width))
	}
	return out
}

// Snapshot exports every card. Returns nil on a nil scorecard. Cards
// are read table by table under their locks; concurrent updates
// between tables may land or not (a snapshot is a consistent cut only
// when traffic is quiesced, which is how the experiments use it).
func (s *Scorecard) Snapshot() *ScorecardSnapshot {
	if s == nil {
		return nil
	}
	arms := s.arms.export(scoreWindowWidth)
	for i := range arms {
		if arms[i].Key == OverflowKey {
			continue
		}
		arms[i].Ino = arms[i].Key >> armKeyBits
		arms[i].Arm = Arm(arms[i].Key & (1<<armKeyBits - 1)).String()
	}
	return &ScorecardSnapshot{
		WindowWidth: scoreWindowWidth,
		Windows:     scoreWindows,
		Files:       s.files.export(scoreWindowWidth),
		Tenants:     s.tenants.export(scoreWindowWidth),
		Arms:        arms,
	}
}

// ScorecardDelta is the interval difference between two snapshots of the
// same scorecard: per-key lifetime-total deltas with scores recomputed
// over just the interval — the admin plane's rate view.
type ScorecardDelta struct {
	Files   []CardScore `json:"files"`
	Tenants []CardScore `json:"tenants"`
	Arms    []CardScore `json:"arms,omitempty"`
}

// Diff computes cur - prev over lifetime totals, keyed by card. prev may
// be nil (the delta is then cur's totals). Cards absent from prev count
// from zero; cards absent from cur are dropped (cards never disappear in
// practice — the maps only grow).
func (cur *ScorecardSnapshot) Diff(prev *ScorecardSnapshot) *ScorecardDelta {
	if cur == nil {
		return nil
	}
	var prevFiles, prevTenants, prevArms []CardScore
	if prev != nil {
		prevFiles, prevTenants, prevArms = prev.Files, prev.Tenants, prev.Arms
	}
	return &ScorecardDelta{
		Files:   diffCards(cur.Files, prevCards(prevFiles)),
		Tenants: diffCards(cur.Tenants, prevCards(prevTenants)),
		Arms:    diffCards(cur.Arms, prevCards(prevArms)),
	}
}

func prevCards(src []CardScore) map[int64]*WindowScore {
	if len(src) == 0 {
		return nil
	}
	m := make(map[int64]*WindowScore, len(src))
	for i := range src {
		m[src[i].Key] = &src[i].Totals
	}
	return m
}

func diffCards(cur []CardScore, prev map[int64]*WindowScore) []CardScore {
	out := make([]CardScore, 0, len(cur))
	for _, c := range cur {
		d := CardScore{Key: c.Key, Ino: c.Ino, Arm: c.Arm, Totals: c.Totals}
		if p := prev[c.Key]; p != nil {
			d.Totals = subWindowScore(c.Totals, *p)
		}
		out = append(out, d)
	}
	return out
}

// subWindowScore recomputes a WindowScore over the interval a - b and
// re-derives the ratio scores from the interval counts. Quantiles are
// not subtractable at this layer; the interval entry reports the
// current-cut quantiles with the interval's exact count/sum.
func subWindowScore(a, b WindowScore) WindowScore {
	out := a
	out.Issued = subOriginMap(a.Issued, b.Issued)
	out.Used = subOriginMap(a.Used, b.Used)
	out.Wasted = subOriginMap(a.Wasted, b.Wasted)
	out.Evicted = a.Evicted - b.Evicted
	out.Reads = a.Reads - b.Reads
	out.HitReads = a.HitReads - b.HitReads
	out.ReadPages = a.ReadPages - b.ReadPages
	out.HitPages = a.HitPages - b.HitPages
	out.LatePages = a.LatePages - b.LatePages
	out.TimelinessCount = a.TimelinessCount - b.TimelinessCount
	out.TimelinessSum = a.TimelinessSum - b.TimelinessSum
	var pfIssued, pfUsed, pfWasted int64
	for o := Origin(0); o < NumOrigins; o++ {
		if !o.IsPrefetch() {
			continue
		}
		name := o.String()
		pfIssued += out.Issued[name]
		pfUsed += out.Used[name]
		pfWasted += out.Wasted[name]
	}
	out.Accuracy, out.Coverage, out.Pollution = 0, 0, 0
	if pfIssued > 0 {
		out.Accuracy = float64(pfUsed) / float64(pfIssued)
	}
	if out.Reads > 0 {
		out.Coverage = float64(out.HitReads) / float64(out.Reads)
	}
	if out.Evicted > 0 {
		out.Pollution = float64(pfWasted) / float64(out.Evicted)
	}
	return out
}

func subOriginMap(a, b map[string]int64) map[string]int64 {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(map[string]int64, len(a))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if out[k] -= v; out[k] == 0 {
			delete(out, k)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
