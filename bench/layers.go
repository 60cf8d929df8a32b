package main

import (
	"fmt"
	"math"
	"sort"

	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/lsm"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// layerSnap is every layer's public accounting at one instant. Two of
// them bracket the measured phase; the per-layer metrics are computed
// from their difference, so set-up and warm-up never leak in.
type layerSnap struct {
	m         crossprefetch.Metrics
	syscalls  [vfs.SysRingEnter + 1]int64
	lanes     blockdev.LaneSetStats
	members   []blockdev.Stats
	treeWait  simtime.Duration
	journal   simtime.LedgerStats
	latePages int64 // scorecard: hit pages whose I/O was still in flight
	hitPages  int64
	db        lsm.Stats
	diskBytes int64
}

func snapshotLayers(inst *instance) *layerSnap {
	sys := inst.sys
	s := &layerSnap{
		m:       sys.Metrics(),
		lanes:   sys.Kernel().RingStats(),
		members: sys.Stack().MemberStats(),
		journal: sys.FS().JournalStats(),
	}
	for k := range s.syscalls {
		s.syscalls[k] = sys.Kernel().SyscallCount(vfs.Syscall(k))
	}
	for _, name := range sys.FS().List() {
		ino, err := sys.FS().Open(name)
		if err != nil {
			continue // removed by a compaction since List
		}
		st := sys.Cache().File(ino.ID()).TreeLockStats()
		s.treeWait += st.ReadWait + st.WriteWait
	}
	if sc := sys.Scorecard().Snapshot(); sc != nil {
		for _, c := range sc.Files {
			s.latePages += c.Totals.LatePages
			s.hitPages += c.Totals.HitPages
		}
	}
	if inst.db != nil {
		s.db = inst.db.Stats()
		s.diskBytes = inst.db.DiskBytes()
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mb = 1 << 20

// layerMetrics computes the accessor- and timeline-sourced per-layer
// metrics of a traced pass (sources S and T in README.md).
func (ps *pass) layerMetrics(out map[string]float64) error {
	a, b := ps.after, ps.before
	ta, tb := a.m.Telemetry, b.m.Telemetry
	ctr := func(c telemetry.Counter) float64 { return float64(ta.Counter(c) - tb.Counter(c)) }
	ops := float64(ps.ops)

	// crosslib
	la, lb := a.m.Lib, b.m.Lib
	calls := float64(la.PrefetchCalls - lb.PrefetchCalls)
	saved := float64(la.SavedPrefetches - lb.SavedPrefetches)
	out["crosslib.prefetch_calls"] = calls
	out["crosslib.saved_prefetches"] = saved
	out["crosslib.prefetch_saved_ratio"] = ratio(saved, saved+calls)
	out["crosslib.prefetched_pages"] = float64(la.PrefetchedPages - lb.PrefetchedPages)
	out["crosslib.evicted_pages"] = float64(la.EvictedPages - lb.EvictedPages)
	out["crosslib.dropped_prefetch"] = float64(la.DroppedPrefetch - lb.DroppedPrefetch)
	out["crosslib.batched_intents"] = float64(la.BatchedIntents - lb.BatchedIntents)
	out["crosslib.vectored_flushes"] = float64(la.VectoredFlushes - lb.VectoredFlushes)

	// predictor: Leap's accuracy and coverage, from the page-credit ledger.
	hit, wasted := ctr(telemetry.CtrPrefetchHitPages), ctr(telemetry.CtrPrefetchWastedPages)
	ca, cb := a.m.Cache, b.m.Cache
	lookups := float64(ca.Hits - cb.Hits + ca.Misses - cb.Misses)
	out["predictor.arm_promotions"] = float64(la.ArmPromotions - lb.ArmPromotions)
	out["predictor.prefetch_accuracy"] = ratio(hit, hit+wasted)
	out["predictor.prefetch_coverage"] = ratio(hit, lookups)

	// vfs
	var crossings float64
	for k := range a.syscalls {
		crossings += float64(a.syscalls[k] - b.syscalls[k])
	}
	demand := ctr(telemetry.CtrVFSDemandFetchPages)
	out["vfs.crossings_per_op"] = crossings / ops
	out["vfs.readahead_info_calls"] = float64(a.syscalls[vfs.SysReadaheadInfo] - b.syscalls[vfs.SysReadaheadInfo])
	out["vfs.demand_fetch_pages"] = demand
	out["vfs.prefetch_device_pages"] = ctr(telemetry.CtrVFSPrefetchDevicePages)
	out["vfs.demand_retries"] = ctr(telemetry.CtrVFSDemandRetries)
	out["vfs.ring_sqes_per_enter"] = ratio(ctr(telemetry.CtrRingSQESubmitted), ctr(telemetry.CtrRingEnterCalls))
	out["vfs.ring_shed_sqes"] = ctr(telemetry.CtrRingShedSQEs)
	out["vfs.ring_backpressure"] = ctr(telemetry.CtrRingBackpressure)
	out["vfs.brownout_transitions"] = ctr(telemetry.CtrBrownoutTransitions)

	// readahead: what the kernel's own window machine brought in.
	ra := telemetry.OriginReadahead
	out["readahead.kernel_prefetched_pages"] = float64(ta.Origin(ra).Inserted - tb.Origin(ra).Inserted)

	// pagecache
	out["pagecache.hit_ratio"] = ratio(float64(ca.Hits-cb.Hits), lookups)
	out["pagecache.demand_hit_ratio"] = 1 - ratio(demand, lookups)
	out["pagecache.evictions"] = float64(ca.Evictions - cb.Evictions)
	out["pagecache.direct_reclaims"] = float64(ca.DirectReclaim - cb.DirectReclaim)
	out["pagecache.kswapd_runs"] = float64(ca.KswapdRuns - cb.KswapdRuns)
	out["pagecache.writebacks"] = float64(ca.Writebacks - cb.Writebacks)
	out["pagecache.prefetch_wasted_ratio"] = ratio(wasted, ctr(telemetry.CtrCachePrefetchInsertedPages))
	out["pagecache.prefetch_late_ratio"] = ratio(float64(a.latePages-b.latePages), float64(a.hitPages-b.hitPages))
	// Table files a compaction removed take their ledgers with them.
	out["pagecache.virt_tree_lock_wait_us"] = math.Max(0, float64(a.treeWait-b.treeWait)) / 1e3

	// blockdev
	da, db := a.m.Device, b.m.Device
	readOps, writeOps := float64(da.ReadOps-db.ReadOps), float64(da.WriteOps-db.WriteOps)
	readB, writeB := float64(da.ReadBytes-db.ReadBytes), float64(da.WriteBytes-db.WriteBytes)
	segs := float64(da.PlugSegments - db.PlugSegments)
	out["blockdev.read_ops"] = readOps
	out["blockdev.read_mb"] = readB / mb
	out["blockdev.write_ops"] = writeOps
	out["blockdev.write_mb"] = writeB / mb
	out["blockdev.mean_cmd_kb"] = ratio(readB+writeB, readOps+writeOps) / 1024
	out["blockdev.virt_busy_ratio"] = ratio(float64(da.Busy-db.Busy), float64(ps.ph.makespan()))
	out["blockdev.plug_merge_ratio"] = ratio(float64(da.MergedSegments-db.MergedSegments), segs)
	rl := histDelta(ta, tb, telemetry.HistDevReadLat)
	out["blockdev.virt_read_lat_p50_us"] = rl.quantile(0.50) / 1e3
	out["blockdev.virt_read_lat_p99_us"] = rl.quantile(0.99) / 1e3
	out["blockdev.lane_mean_batch_depth"] = ratio(float64(a.lanes.Commands-b.lanes.Commands), float64(a.lanes.Batches-b.lanes.Batches))
	out["blockdev.lane_queue_wait_p99_us"] = histDelta(ta, tb, telemetry.HistRingQueueWait).quantile(0.99) / 1e3
	// Stripe balance and the remote share, from the per-member counters.
	// A one-member stack is perfectly balanced and wholly local.
	minB, maxB, remoteB := math.Inf(1), 0.0, 0.0
	locals := ps.inst.sys.Stack().Width()
	for i := range a.members {
		rb := float64(a.members[i].ReadBytes - b.members[i].ReadBytes)
		if i < locals {
			minB, maxB = math.Min(minB, rb), math.Max(maxB, rb)
		} else {
			remoteB += rb
		}
	}
	out["blockdev.member_byte_skew"] = 1
	if minB > 0 && !math.IsInf(minB, 1) {
		out["blockdev.member_byte_skew"] = maxB / minB
	}
	out["blockdev.remote_read_share"] = ratio(remoteB, readB)
	tra, trb := a.m.Tier, b.m.Tier
	out["blockdev.tier_promotions"] = float64(tra.Promotions - trb.Promotions)
	out["blockdev.tier_prefetch_promotions"] = float64(tra.PrefetchPromotions - trb.PrefetchPromotions)
	out["blockdev.tier_demotions"] = float64(tra.Demotions - trb.Demotions)
	out["blockdev.tier_copyback_mb"] = float64(tra.CopybackBytes-trb.CopybackBytes) / mb

	// fs
	out["fs.virt_journal_wait_us"] = float64(a.journal.Wait-b.journal.Wait) / 1e3

	// simtime: the paper's Table 1 / Table 5 view of the measured
	// timelines. runPass already asserted the three sum to elapsed.
	el := float64(ps.ph.acct.Elapsed)
	out["simtime.virt_cpu_share"] = ratio(float64(ps.ph.acct.CPU), el)
	out["simtime.virt_io_wait_share"] = ratio(float64(ps.ph.acct.IOWait), el)
	out["simtime.virt_lock_wait_share"] = ratio(float64(ps.ph.acct.LockWait), el)

	// lsm
	sa, sb := a.db, b.db
	gets, puts := float64(sa.Gets-sb.Gets), float64(sa.Puts-sb.Puts)
	out["lsm.block_reads_per_get"] = ratio(float64(sa.BlockReads-sb.BlockReads), gets)
	out["lsm.flushes"] = float64(sa.Flushes - sb.Flushes)
	out["lsm.compactions"] = float64(sa.Compactions - sb.Compactions)
	out["lsm.compact_read_mb"] = float64(sa.CompactBytesRead-sb.CompactBytesRead) / mb
	out["lsm.compact_write_mb"] = float64(sa.CompactBytesWritten-sb.CompactBytesWritten) / mb
	out["lsm.write_amp"] = ratio(writeB, puts*lsmValueBytes)
	out["lsm.space_amp"] = ratio(float64(a.diskBytes)/1024, float64(ps.inst.liveKB))

	// telemetry: the stack's own tracer and its critical-path breakdown.
	tsa, tsb := a.m.Trace, b.m.Trace
	out["telemetry.trace_dropped_roots"] = float64(tsa.DroppedRoots - tsb.DroppedRoots)
	out["telemetry.trace_dropped_spans"] = float64(tsa.DroppedSpans - tsb.DroppedSpans)
	return ps.criticalPathShares(out)
}

// criticalPathShares sums telemetry.CriticalPath over the roots the
// stack's tracer kept from the measured phase. Exclusive attribution
// makes each root's slices sum to its duration, so the eight shares sum
// to 1 — asserted, because a share that leaks is a tracer bug.
func (ps *pass) criticalPathShares(out map[string]float64) error {
	var byCat [8]int64
	var total int64
	for _, root := range ps.inst.sys.Tracer().Roots() {
		if root.StartTime() < ps.ph.start {
			continue
		}
		var sum int64
		for _, sl := range telemetry.CriticalPath(root) {
			byCat[sl.Category] += sl.Ns
			sum += sl.Ns
		}
		if d := int64(root.Duration()); sum != d {
			return fmt.Errorf("critical path of root %d sums to %d, root lasted %d", root.Seq(), sum, d)
		}
		total += sum
	}
	for c := telemetry.CatCPU; c <= telemetry.CatInflight; c++ {
		out["telemetry.virt_path_"+c.String()+"_share"] = ratio(float64(byCat[c]), float64(total))
	}
	return nil
}

// hist is the difference of two log2-bucketed histogram snapshots.
type hist struct {
	buckets []telemetry.BucketCount
	count   int64
}

func histDelta(a, b *telemetry.Snapshot, h telemetry.Hist) hist {
	before := map[int64]int64{}
	for _, bk := range b.Histograms[h.String()].Buckets {
		before[bk.Lo] = bk.Count
	}
	var d hist
	for _, bk := range a.Histograms[h.String()].Buckets {
		if n := bk.Count - before[bk.Lo]; n > 0 {
			d.buckets = append(d.buckets, telemetry.BucketCount{Lo: bk.Lo, Hi: bk.Hi, Count: n})
			d.count += n
		}
	}
	sort.Slice(d.buckets, func(i, j int) bool { return d.buckets[i].Lo < d.buckets[j].Lo })
	return d
}

// quantile interpolates linearly inside the log2 bucket the rank falls in.
func (h hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var seen float64
	for _, bk := range h.buckets {
		if n := float64(bk.Count); seen+n >= rank {
			return float64(bk.Lo) + (rank-seen)/n*float64(bk.Hi-bk.Lo)
		}
		seen += float64(bk.Count)
	}
	return float64(h.buckets[len(h.buckets)-1].Hi)
}
