package telemetry

import (
	"fmt"
	"strings"
)

// AuditInput carries the external ground truth Audit reconciles the
// recorder's counters against.
type AuditInput struct {
	// BlockSize converts the device byte counters to pages.
	BlockSize int64
	// CacheUsed is the cache's own resident-page count at audit time.
	CacheUsed int64
	// LibSavedPrefetches, LibDroppedPrefetch, LibDroppedBreaker and
	// LibEvictedPages are the CROSS-LIB stats counters (summed over runtimes
	// sharing the recorder); consulted when HasLibStats is set.
	LibSavedPrefetches int64
	LibDroppedPrefetch int64
	LibDroppedBreaker  int64
	LibEvictedPages    int64
	HasLibStats        bool
	// StrictDevice additionally requires every device read to be
	// accounted to a VFS demand fetch or prefetch — true whenever the
	// kernel under audit is the device's only client.
	StrictDevice bool
	// Tenants, when HasTenants is set, is the cache's per-tenant ledger
	// snapshot. Audit requires the tenant accounts to reconcile exactly:
	// each tenant's inserted - evicted == resident, and the residency
	// summed over all tenants == CacheUsed (no page is unowned or
	// double-owned).
	Tenants    []TenantLedger
	HasTenants bool
}

// TenantLedger is one tenant's page-accounting snapshot as the cache
// reports it (see pagecache TenantStats).
type TenantLedger struct {
	ID       int
	Resident int64
	Inserted int64
	Evicted  int64
}

// Audit cross-checks the layers' accounts of the same work and returns
// nil when they reconcile, or one error listing every violated
// invariant. The point is regression detection: each invariant below is
// an identity the stack maintains by construction, so a mismatch means
// some layer's accounting broke (exactly the class of bug a flat,
// single-layer counter cannot expose).
func Audit(s *Snapshot, in AuditInput) error {
	if s == nil {
		return fmt.Errorf("telemetry audit: nil snapshot (telemetry disabled?)")
	}
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	// Kernel-internal: the limit clamp splits every requested page into
	// admitted or rejected, never both, never neither.
	req := s.Counter(CtrKernelRequestedPages)
	adm := s.Counter(CtrKernelAdmittedPages)
	rej := s.Counter(CtrKernelRejectedPages)
	if req != adm+rej {
		fail("kernel requested %d != admitted %d + rejected %d", req, adm, rej)
	}

	// Lib <-> kernel: every page the library hands to readahead_info is
	// seen by the kernel (the library clamps to the file before calling,
	// so the counts match exactly).
	if lib := s.Counter(CtrLibIssuedPages); lib != adm+rej {
		fail("lib issued %d pages != kernel admitted %d + rejected %d", lib, adm, rej)
	}

	// Cache <-> cache: insertions minus removals is exactly residency.
	ins := s.Counter(CtrCacheInsertedPages)
	rem := s.Counter(CtrCacheRemovedPages)
	if ins-rem != in.CacheUsed {
		fail("cache inserted %d - removed %d = %d != resident %d", ins, rem, ins-rem, in.CacheUsed)
	}

	// VFS <-> cache: every page the VFS prefetch path inserted was
	// flagged prefetched by the cache, and vice versa.
	vfsIns := s.Counter(CtrVFSPrefetchInsertedPages)
	cacheIns := s.Counter(CtrCachePrefetchInsertedPages)
	if vfsIns != cacheIns {
		fail("vfs prefetch-inserted %d pages != cache prefetch-inserted %d", vfsIns, cacheIns)
	}

	// readahead_info reports a subset of all VFS prefetch insertions
	// (kernel readahead and fault-around also insert).
	if kp := s.Counter(CtrKernelPrefetchedPages); kp > vfsIns {
		fail("readahead_info prefetched %d pages > all vfs prefetch insertions %d", kp, vfsIns)
	}

	// Effectiveness: a prefetched page is consumed at most once, as a
	// hit or as waste.
	hit := s.Counter(CtrPrefetchHitPages)
	wasted := s.Counter(CtrPrefetchWastedPages)
	if hit+wasted > cacheIns {
		fail("prefetch hits %d + wasted %d > prefetched insertions %d", hit, wasted, cacheIns)
	}

	// Trace <-> counter: the evicted-before-use events carry exactly the
	// wasted pages.
	if ev := s.Outcome(OutcomeEvictedBeforeUse); ev.Pages != wasted {
		fail("evicted-before-use trace pages %d != wasted counter %d", ev.Pages, wasted)
	}

	// Origin partition <-> global counters: the per-origin provenance
	// ledgers partition the flat totals EXACTLY. Prefetch-origin
	// insertions sum to the prefetch-inserted counter, demand insertions
	// are the complement of all insertions, per-origin used/wasted sum to
	// the hit/wasted counters, and within each origin a page is consumed
	// at most once (used + wasted <= inserted). Demand pages never carry
	// credit, so their used/wasted books must be empty.
	var oIns, oUsed, oWasted, pfIns int64
	for o := Origin(0); o < NumOrigins; o++ {
		st := s.Origin(o)
		oIns += st.Inserted
		oUsed += st.Used
		oWasted += st.Wasted
		if o.IsPrefetch() {
			pfIns += st.Inserted
		}
		if st.Used+st.Wasted > st.Inserted {
			fail("origin %s used %d + wasted %d > inserted %d", o, st.Used, st.Wasted, st.Inserted)
		}
	}
	if oIns != ins {
		fail("per-origin inserted sum %d != cache inserted %d", oIns, ins)
	}
	if pfIns != cacheIns {
		fail("prefetch-origin inserted sum %d != cache prefetch-inserted %d", pfIns, cacheIns)
	}
	if oUsed != hit {
		fail("per-origin used sum %d != prefetch hits %d", oUsed, hit)
	}
	if oWasted != wasted {
		fail("per-origin wasted sum %d != prefetch wasted %d", oWasted, wasted)
	}
	if d := s.Origin(OriginDemand); d.Used != 0 || d.Wasted != 0 {
		fail("demand origin booked used %d / wasted %d (demand pages carry no credit)", d.Used, d.Wasted)
	}

	// Arm partition <-> prefetch-origin ledger: the per-arm real-prefetch
	// cells are a second, orthogonal partition of the SAME prefetch-credit
	// pages the origin lattice covers — every prefetch-origin insertion
	// books exactly one arm (ArmNone when no ensemble arm drove it), so
	// summed over all arms the inserted/used/wasted cells equal the
	// prefetch-origin sums exactly, and within each arm a page is consumed
	// at most once.
	var aIns, aUsed, aWasted int64
	for a := Arm(0); a < NumArms; a++ {
		st := s.Arm(a)
		aIns += st.Inserted
		aUsed += st.Used
		aWasted += st.Wasted
		if st.Used+st.Wasted > st.Inserted {
			fail("arm %s used %d + wasted %d > inserted %d", a, st.Used, st.Wasted, st.Inserted)
		}
	}
	if aIns != pfIns {
		fail("per-arm inserted sum %d != prefetch-origin inserted sum %d", aIns, pfIns)
	}
	if aUsed != hit {
		fail("per-arm used sum %d != prefetch hits %d", aUsed, hit)
	}
	if aWasted != wasted {
		fail("per-arm wasted sum %d != prefetch wasted %d", aWasted, wasted)
	}

	// Drop-behind <-> trace: every unit dropped behind a stream was traced
	// with the pages it freed.
	behind := s.Counter(CtrLibDroppedBehindPages)
	if ev := s.Outcome(OutcomeDroppedBehind); ev.Pages != behind {
		fail("dropped-behind trace pages %d != lib dropped-behind pages %d", ev.Pages, behind)
	}

	// Bandit <-> trace: every promotion was traced.
	if ev := s.Outcome(OutcomeArmPromoted); ev.Events != s.Counter(CtrPredArmPromotions) {
		fail("arm-promoted trace events %d != arm promotions %d", ev.Events, s.Counter(CtrPredArmPromotions))
	}

	// Shadow books: a shadow candidate page is consumed at most once, as
	// an overlap hit or by expiry; the remainder is still outstanding.
	shadowIssued := s.Counter(CtrPredShadowIssuedPages)
	shadowHit := s.Counter(CtrPredShadowHitPages)
	shadowExp := s.Counter(CtrPredShadowExpiredPages)
	if shadowHit+shadowExp > shadowIssued {
		fail("shadow hits %d + expired %d > shadow issued %d", shadowHit, shadowExp, shadowIssued)
	}

	// Timeliness: every used prefetched page contributed exactly one
	// prefetch-to-first-use sample, and late-prefetch events can only
	// cover consumed pages.
	if n := s.Histograms[HistPrefetchToUse.String()].Count; n != hit {
		fail("prefetch-to-use samples %d != prefetch hits %d", n, hit)
	}
	if ev := s.Outcome(OutcomeLatePrefetch); ev.Pages > hit {
		fail("late-prefetch trace pages %d > prefetch hits %d", ev.Pages, hit)
	}

	// Trace <-> lib stats: the decision trace and the library's flat
	// counters describe the same decisions.
	if in.HasLibStats {
		if ev := s.Outcome(OutcomeSavedByBitmap); ev.Events != in.LibSavedPrefetches {
			fail("saved-by-bitmap trace events %d != lib saved prefetches %d", ev.Events, in.LibSavedPrefetches)
		}
		if ev := s.Outcome(OutcomeDroppedQueueFull); ev.Events != in.LibDroppedPrefetch {
			fail("dropped-queue-full trace events %d != lib dropped prefetches %d", ev.Events, in.LibDroppedPrefetch)
		}
		if ev := s.Outcome(OutcomeDroppedBreakerOpen); ev.Events != in.LibDroppedBreaker {
			fail("dropped-breaker-open trace events %d != lib breaker drops %d", ev.Events, in.LibDroppedBreaker)
		}
		// Drop-behind is one of the library's two evictors, never more
		// than both.
		if behind > in.LibEvictedPages {
			fail("lib dropped-behind pages %d > lib evicted pages %d", behind, in.LibEvictedPages)
		}
	}

	// Cache-poisoning guard: every page inserted CLEAN was backed by a
	// successful device read (demand fetch or prefetch). A failed read
	// that still inserted pages breaks this inequality.
	cleanIns := ins - s.Counter(CtrCacheDirtyInsertedPages)
	readBacked := s.Counter(CtrVFSDemandFetchPages) + s.Counter(CtrVFSPrefetchDevicePages)
	if cleanIns > readBacked {
		fail("clean cache insertions %d > read-backed pages %d (poisoned cache entries?)", cleanIns, readBacked)
	}

	// Trace <-> counter: retry and breaker events carry exactly the flat
	// counters' totals, and every device-fault event implies an injected
	// (or real) device failure.
	if ev := s.Outcome(OutcomeRetriedTransient); ev.Events != s.Counter(CtrLibPrefetchRetries) {
		fail("retried-transient trace events %d != lib prefetch retries %d", ev.Events, s.Counter(CtrLibPrefetchRetries))
	}
	if ev := s.Outcome(OutcomeBreakerTripped); ev.Events != s.Counter(CtrLibBreakerTrips) {
		fail("breaker-tripped trace events %d != breaker trips %d", ev.Events, s.Counter(CtrLibBreakerTrips))
	}
	if ev := s.Outcome(OutcomeBreakerRecovered); ev.Events != s.Counter(CtrLibBreakerRecoveries) {
		fail("breaker-recovered trace events %d != breaker recoveries %d", ev.Events, s.Counter(CtrLibBreakerRecoveries))
	}
	if ev := s.Outcome(OutcomeDeviceFault); ev.Events > s.Counter(CtrDeviceInjectedFaults) {
		fail("device-fault trace events %d > injected device faults %d", ev.Events, s.Counter(CtrDeviceInjectedFaults))
	}

	// Plug <-> device: merging request segments into commands must be
	// byte-preserving (a merged command accounts for exactly the bytes of
	// its parts), a command never comes from thin air (commands <=
	// segments), and every segment not dispatched as its own command was
	// absorbed by a merge (merged == segments - commands).
	plugSegs := s.Counter(CtrDevicePlugSegments)
	plugCmds := s.Counter(CtrDevicePlugCommands)
	plugMerged := s.Counter(CtrDevicePlugMergedSegments)
	if segB, cmdB := s.Counter(CtrDevicePlugSegmentBytes), s.Counter(CtrDevicePlugCommandBytes); segB != cmdB {
		fail("plug segment bytes %d != plug command bytes %d (merge not byte-preserving)", segB, cmdB)
	}
	if plugCmds > plugSegs {
		fail("plug commands %d > plug segments %d", plugCmds, plugSegs)
	}
	if plugMerged != plugSegs-plugCmds {
		fail("plug merged segments %d != segments %d - commands %d", plugMerged, plugSegs, plugCmds)
	}

	// Ring <-> ring: at audit time (quiescence) every SQE accepted onto a
	// ring must have produced exactly one CQE, every dispatch batch issued
	// at least one device command, and lane dispatches go through the plug,
	// so ring commands can never exceed the plug's command total.
	sqes := s.Counter(CtrRingSQESubmitted)
	cqes := s.Counter(CtrRingCQECompleted)
	if sqes != cqes {
		fail("ring SQEs submitted %d != CQEs completed %d", sqes, cqes)
	}
	ringBatches := s.Counter(CtrRingDispatchBatches)
	ringCmds := s.Counter(CtrRingDispatchCommands)
	if ringCmds < ringBatches {
		fail("ring dispatch commands %d < dispatch batches %d", ringCmds, ringBatches)
	}
	if ringCmds > plugCmds {
		fail("ring dispatch commands %d > plug commands %d", ringCmds, plugCmds)
	}
	if ringBatches > 0 && s.Counter(CtrRingEnterCalls) == 0 {
		fail("ring dispatched %d batches with zero ring_enter crossings", ringBatches)
	}

	// Backend partition <-> stack totals: when a device stack registered
	// its members, the per-backend cells partition the stack-level device
	// counters EXACTLY — every completed command and every byte moved is
	// accounted to exactly one backend, and each backend's queue-wait and
	// service histograms carry one sample per command.
	if len(s.Backends) > 0 {
		var bCmds, bRead, bWrite int64
		for name, b := range s.Backends {
			bCmds += b.Commands
			bRead += b.ReadBytes
			bWrite += b.WriteBytes
			if b.QueueWait.Count != b.Commands {
				fail("backend %s queue-wait samples %d != commands %d", name, b.QueueWait.Count, b.Commands)
			}
			if b.Service.Count != b.Commands {
				fail("backend %s service samples %d != commands %d", name, b.Service.Count, b.Commands)
			}
		}
		if cmds := s.Counter(CtrDeviceCommands); bCmds != cmds {
			fail("per-backend command sum %d != device commands %d", bCmds, cmds)
		}
		if rd := s.Counter(CtrDeviceReadBytes); bRead != rd {
			fail("per-backend read-byte sum %d != device read bytes %d", bRead, rd)
		}
		if wr := s.Counter(CtrDeviceWriteBytes); bWrite != wr {
			fail("per-backend write-byte sum %d != device write bytes %d", bWrite, wr)
		}
	}

	// Device <-> VFS: for a kernel that is the device's only client,
	// every read the device served was a demand fetch or a prefetch.
	if in.StrictDevice && in.BlockSize > 0 {
		devPages := s.Counter(CtrDeviceReadBytes) / in.BlockSize
		vfsPages := s.Counter(CtrVFSDemandFetchPages) + s.Counter(CtrVFSPrefetchDevicePages)
		if devPages != vfsPages {
			fail("device read %d pages != vfs demand %d + prefetch %d",
				devPages, s.Counter(CtrVFSDemandFetchPages), s.Counter(CtrVFSPrefetchDevicePages))
		}
	}

	// Spans <-> counters: page totals accumulated on sampled root spans
	// describe a subset of the work the flat counters saw, so they can
	// never exceed them; under full sampling (every root traced) they
	// must match exactly — a mismatch means an instrumented path counted
	// pages without a span (or vice versa).
	if t := s.Trace; t != nil {
		demand := s.Counter(CtrVFSDemandFetchPages)
		prefetch := s.Counter(CtrVFSPrefetchDevicePages)
		if t.DemandPages > demand {
			fail("span demand pages %d > vfs demand fetch pages %d", t.DemandPages, demand)
		}
		if t.PrefetchPages > prefetch {
			fail("span prefetch pages %d > vfs prefetch device pages %d", t.PrefetchPages, prefetch)
		}
		if t.SampleEvery <= 1 && !t.PerInode {
			if t.DemandPages != demand {
				fail("full-sampling span demand pages %d != vfs demand fetch pages %d", t.DemandPages, demand)
			}
			if t.PrefetchPages != prefetch {
				fail("full-sampling span prefetch pages %d != vfs prefetch device pages %d", t.PrefetchPages, prefetch)
			}
		}
	}

	// Tenant <-> cache: tenant accounting partitions global residency
	// exactly — every tenant's own insert/evict ledger balances, and the
	// tenants' resident pages sum to the cache's resident count.
	if in.HasTenants {
		var sum int64
		for _, t := range in.Tenants {
			if t.Inserted-t.Evicted != t.Resident {
				fail("tenant %d inserted %d - evicted %d = %d != resident %d",
					t.ID, t.Inserted, t.Evicted, t.Inserted-t.Evicted, t.Resident)
			}
			sum += t.Resident
		}
		if sum != in.CacheUsed {
			fail("tenant residency sum %d != cache resident %d", sum, in.CacheUsed)
		}
	}

	// Shed <-> trace: every shed prefetch intent's pages are carried by
	// exactly one shed-prefetch event.
	if ev := s.Outcome(OutcomeShedPrefetch); ev.Pages != s.Counter(CtrRingShedPrefetchPages) {
		fail("shed-prefetch trace pages %d != ring shed prefetch pages %d",
			ev.Pages, s.Counter(CtrRingShedPrefetchPages))
	}

	// Trace bookkeeping: per-outcome totals must cover everything the
	// ring ever saw.
	var traced int64
	for o := Outcome(0); o < numOutcomes; o++ {
		traced += s.Outcome(o).Events
	}
	if traced != s.EventsTotal {
		fail("outcome totals %d != events recorded %d", traced, s.EventsTotal)
	}

	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("telemetry audit: %d invariant(s) violated:\n  %s",
		len(bad), strings.Join(bad, "\n  "))
}
