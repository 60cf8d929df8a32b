package main

import "encoding/json"

// metricSpec declares one metric: the name it is printed under, its
// unit, which direction is better, and — end-to-end metrics only — the
// share of the parent's median by which it may worsen before a change
// counts as a regression. This table is the single declaration:
// BENCHMARK.json is generated from it (`-spec`) and bench_test.go checks
// the two agree.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// Units: virtual time carries its own unit (virt_us, virt_ms) so a number
// of the simulated stack is never mistaken for a wall-clock reading.
// One bound per metric covers every workload and every seed, so each is
// at least three times the widest spread any workload showed over ten
// seeds (README.md has the table): the virtual numbers are exact for one
// seed and move by a percent or two with the inputs; allocation and heap
// repeat to a percent or two as well. The host's wall-clock rate does not
// — on the shared sandbox identical work differs by ±20% from minute to
// minute — so ops per host second carries no bound and is reported with
// the per-layer metrics, as bench.host_ops_per_s.
var endToEnd = []metricSpec{
	{"virt_mb_per_s", "MB/s", "higher", 0.06},
	{"virt_op_p50_us", "virt_us", "lower", 0.05},
	{"virt_op_p99_us", "virt_us", "lower", 0.20},
	{"virt_makespan_ms", "virt_ms", "lower", 0.06},
	{"host_allocs_per_op_plus1", "allocs", "lower", 0.06},
	{"host_alloc_kb_per_op_plus1", "KB", "lower", 0.12},
	{"host_live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists every per-layer metric, prefixed with the module it
// measures. All come from the traced run; none has a bound.
var perLayer = []metricSpec{
	// crosslib: the user-level runtime.
	{"crosslib.host_ns_per_op_p50", "ns", "lower", 0},
	{"crosslib.host_ns_per_op_p99", "ns", "lower", 0},
	{"crosslib.prefetch_calls", "count", "lower", 0},
	{"crosslib.saved_prefetches", "count", "higher", 0},
	{"crosslib.prefetch_saved_ratio", "ratio", "higher", 0},
	{"crosslib.prefetched_pages", "count", "lower", 0},
	{"crosslib.evicted_pages", "count", "lower", 0},
	{"crosslib.dropped_prefetch", "count", "lower", 0},
	{"crosslib.batched_intents", "count", "higher", 0},
	{"crosslib.vectored_flushes", "count", "lower", 0},
	{"crosslib.virt_speedup_vs_osonly", "ratio", "higher", 0},
	// predictor: per-descriptor counter and the arm ensemble.
	{"predictor.host_ns_per_observe", "ns", "lower", 0},
	{"predictor.ensemble_host_ns_per_observe", "ns", "lower", 0},
	{"predictor.arm_promotions", "count", "lower", 0},
	{"predictor.prefetch_accuracy", "ratio", "higher", 0},
	{"predictor.prefetch_coverage", "ratio", "higher", 0},
	// rangetree and bitmap: the user-level and kernel residency maps.
	{"rangetree.host_ns_per_needs_prefetch", "ns", "lower", 0},
	{"rangetree.host_ns_per_mark_cached", "ns", "lower", 0},
	{"bitmap.host_ns_per_missing_runs", "ns", "lower", 0},
	// vfs: the system-call layer and the rings.
	{"vfs.crossings_per_op", "1/op", "lower", 0},
	{"vfs.readahead_info_calls", "count", "lower", 0},
	{"vfs.demand_fetch_pages", "count", "lower", 0},
	{"vfs.prefetch_device_pages", "count", "lower", 0},
	{"vfs.demand_retries", "count", "lower", 0},
	{"vfs.ring_sqes_per_enter", "1/enter", "higher", 0},
	{"vfs.ring_shed_sqes", "count", "lower", 0},
	{"vfs.ring_backpressure", "count", "lower", 0},
	{"vfs.brownout_transitions", "count", "lower", 0},
	{"vfs.host_ns_per_read_hit", "ns", "lower", 0},
	{"vfs.host_ns_per_readahead_info", "ns", "lower", 0},
	// readahead: the kernel's window state machine.
	{"readahead.host_ns_per_on_demand", "ns", "lower", 0},
	{"readahead.kernel_prefetched_pages", "count", "lower", 0},
	// pagecache.
	{"pagecache.hit_ratio", "ratio", "higher", 0},
	{"pagecache.demand_hit_ratio", "ratio", "higher", 0},
	{"pagecache.evictions", "count", "lower", 0},
	{"pagecache.direct_reclaims", "count", "lower", 0},
	{"pagecache.kswapd_runs", "count", "lower", 0},
	{"pagecache.writebacks", "count", "lower", 0},
	{"pagecache.prefetch_wasted_ratio", "ratio", "lower", 0},
	{"pagecache.prefetch_late_ratio", "ratio", "lower", 0},
	{"pagecache.virt_tree_lock_wait_us", "virt_us", "lower", 0},
	{"pagecache.host_ns_per_lookup_page", "ns", "lower", 0},
	{"pagecache.host_ns_per_insert_evict_page", "ns", "lower", 0},
	// blockdev: devices, plugs, lanes, stripes and tiers.
	{"blockdev.read_ops", "count", "lower", 0},
	{"blockdev.read_mb", "MB", "lower", 0},
	{"blockdev.write_ops", "count", "lower", 0},
	{"blockdev.write_mb", "MB", "lower", 0},
	{"blockdev.mean_cmd_kb", "KB", "higher", 0},
	{"blockdev.virt_busy_ratio", "ratio", "higher", 0},
	{"blockdev.plug_merge_ratio", "ratio", "higher", 0},
	{"blockdev.virt_read_lat_p50_us", "virt_us", "lower", 0},
	{"blockdev.virt_read_lat_p99_us", "virt_us", "lower", 0},
	{"blockdev.lane_mean_batch_depth", "cmds", "higher", 0},
	{"blockdev.lane_queue_wait_p99_us", "virt_us", "lower", 0},
	{"blockdev.member_byte_skew", "ratio", "lower", 0},
	{"blockdev.remote_read_share", "ratio", "lower", 0},
	{"blockdev.tier_promotions", "count", "lower", 0},
	{"blockdev.tier_prefetch_promotions", "count", "higher", 0},
	{"blockdev.tier_demotions", "count", "lower", 0},
	{"blockdev.tier_copyback_mb", "MB", "lower", 0},
	{"blockdev.host_ns_per_plug_cmd", "ns", "lower", 0},
	{"blockdev.host_ns_per_stack_access", "ns", "lower", 0},
	{"blockdev.host_ns_per_device_access", "ns", "lower", 0},
	// fs.
	{"fs.host_ns_per_map_range", "ns", "lower", 0},
	{"fs.virt_journal_wait_us", "virt_us", "lower", 0},
	// simtime: where the measured timelines' virtual time went.
	{"simtime.virt_cpu_share", "ratio", "lower", 0},
	{"simtime.virt_io_wait_share", "ratio", "lower", 0},
	{"simtime.virt_lock_wait_share", "ratio", "lower", 0},
	{"simtime.host_ns_per_ledger_reserve", "ns", "lower", 0},
	// telemetry: what watching costs, and the tracer's own breakdown.
	{"telemetry.host_overhead_ratio", "ratio", "lower", 0},
	{"telemetry.alloc_overhead_per_op", "allocs", "lower", 0},
	{"telemetry.trace_dropped_roots", "count", "lower", 0},
	{"telemetry.trace_dropped_spans", "count", "lower", 0},
	{"telemetry.virt_path_cpu_share", "ratio", "lower", 0},
	{"telemetry.virt_path_device_share", "ratio", "lower", 0},
	{"telemetry.virt_path_queue_share", "ratio", "lower", 0},
	{"telemetry.virt_path_lock_share", "ratio", "lower", 0},
	{"telemetry.virt_path_copy_share", "ratio", "lower", 0},
	{"telemetry.virt_path_inflight_share", "ratio", "lower", 0},
	{"telemetry.virt_path_retry_share", "ratio", "lower", 0},
	{"telemetry.virt_path_stall_share", "ratio", "lower", 0},
	// lsm.
	{"lsm.block_reads_per_get", "1/get", "lower", 0},
	{"lsm.flushes", "count", "lower", 0},
	{"lsm.compactions", "count", "lower", 0},
	{"lsm.compact_read_mb", "MB", "lower", 0},
	{"lsm.compact_write_mb", "MB", "lower", 0},
	{"lsm.write_amp", "ratio", "lower", 0},
	{"lsm.space_amp", "ratio", "lower", 0},
	{"lsm.host_ns_per_get_p50", "ns", "lower", 0},
	{"lsm.host_ns_per_put_p50", "ns", "lower", 0},
	{"lsm.virt_get_p99_us", "virt_us", "lower", 0},
	{"lsm.virt_put_p99_us", "virt_us", "lower", 0},
	{"lsm.put_stall_max_us", "virt_us", "lower", 0},
	// bench: the harness itself, and the two end-to-end numbers that cannot
	// carry a bound: the wall-clock rate (see above) and failed_op_share,
	// which is 0 at the commit that defined the benchmark while a bounded
	// metric may never be; a failed op also fails the run.
	{"bench.gen_late_p99_us", "virt_us", "lower", 0},
	{"bench.probe_ops", "count", "higher", 0},
	{"bench.host_ops_per_s", "ops/s", "higher", 0},
	{"bench.failed_op_share", "ratio", "lower", 0},
}

// runSeconds is how many host seconds the measured phases of one
// end-to-end run are tuned to add up to on the reference machine (2
// cores): three cycles of two seconds each. The driver passes it back as
// -seconds.
const runSeconds = 6

// benchmarkJSON renders the builder contract's BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
