// Command crosserve replays concurrent client sessions against one
// simulated CrossPrefetch system — the serving-tier frontend for the
// submission/completion rings. Each tenant gets its own file, its own
// ring descriptor (ring mode), and a fair share of the device via the
// kernel's per-tenant dispatch lanes; admission control is the ring's
// depth bound.
//
// Usage:
//
//	crosserve -mode rings -tenants 8 -sessions 4 -ops 200
//	crosserve -mode sync  -tenants 8
//	crosserve -sweep -json BENCH_PR6.json
//	crosserve -mode overload -antagonist -budget-mb 8 -deadline 50us
//	crosserve -mode overload -sweep -json BENCH_PR7.json
//	crosserve -mode score -file-mb 64 -ops 512 -json BENCH_PR8.json
//	crosserve -mode predict -json BENCH_PR9.json
//	crosserve -mode tier -json BENCH_PR10.json
//	crosserve -mode rings -stripe 2 -tier-split 0.5 -remote-rtt 30us
//	crosserve -mode rings -admin :9090
//
// -admin serves the live observability plane for the run's duration:
// /metrics (Prometheus text with HELP metadata), /scorecards (per-file
// and per-tenant effectiveness JSON with interval-rate deltas since the
// previous scrape, filterable by ?tenant= / ?inode=), /predictors (the
// live per-inode predictor-arm table), /tiers (the device stack's
// per-backend occupancy, tier residency, and extent heat table),
// /tracez (the span flight recorder's slowest retained roots), and
// /debug/pprof. The listener drains with a bounded timeout on exit.
//
// Every mode prints its table — the one crossbench prints for the same
// sweep — and, with -json, archives one record per row; table and records
// are rendered from the sweep's one field list in internal/experiments.
//
// -mode score sweeps sequential/strided/zipfian/shared-file access
// through the online scorecards and writes one JSON record per pattern;
// the cells must discriminate (sequential high accuracy, zipfian low
// accuracy and high pollution) and reproduce byte-identical scorecard
// JSON when re-run on the same seed.
//
// -mode predict sweeps sequential/zipfian-LSM/interleaved-shared access
// through the fixed sequentiality counter and the competing-predictor
// ensemble; each cell's warm-half hit rate and throughput are compared,
// the ensemble contract asserted (beat the counter on zipfian, give up
// no more than 2% on sequential), and every cell re-run to prove the
// scorecard JSON deterministic.
//
// -mode tier sweeps the device-stack grid — RAID-0 stripe width, a
// half-remote NVMe-oF tier, and cross-tier prefetch — under
// sequential/zipfian-LSM/shared-file access, with the striping /
// warm-hit / p99 contracts asserted.
//
// In every mode each cell is audit-reconciled, re-run on a fresh system
// to an identical digest, and the sweep's contract asserted before
// anything is written (internal/experiments/sweep.go); the overload,
// score, predict and tier cells also check every byte read against the
// file's raw inode.
//
// The sync/rings frontends take the same stack shape directly:
// -stripe N stripes the local tier RAID-0 across N devices,
// -tier-split F starts fraction F of the extents on a remote NVMe-oF
// tier with cross-tier prefetch on, and -remote-rtt sets that tier's
// fabric round trip.
//
// -sweep runs the sync and ring frontends across 1/8/64 tenants at
// identical replay schedules and writes one JSON record per cell —
// achieved dispatch depth, kernel crossings per op, and tail latency are
// the headline columns. Each session is a member of one thread group, so
// the sweep is a function of -seed.
//
// -mode overload replays zipfian victim tenants against an optional
// full-file-scan antagonist (-antagonist) under per-tenant memory
// budgets (-budget-mb, hard; soft = half) and optional prefetch
// deadlines (-deadline). With -sweep it runs the canonical five cells —
// isolated, no-budget, budget, budget+brownout, budget+deadline — and
// enforces the telemetry audit (exact tenant residency partition) plus
// the 2x-of-isolated victim p99 bound in every budgeted cell.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	crossprefetch "repro"
	"repro/internal/admin"
	"repro/internal/blockdev"
	"repro/internal/crosslib"
	"repro/internal/experiments"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// liveSys tracks the cell currently replaying so the -admin plane's
// endpoints always read the live system (cells swap under one listener).
var liveSys atomic.Pointer[crossprefetch.System]

// live reads one view of the live system for an admin endpoint; nil
// (no cell running yet) becomes the endpoint's 503.
func live[T any](view func(*crossprefetch.System) *T) func() *T {
	return func() *T {
		if s := liveSys.Load(); s != nil {
			return view(s)
		}
		return nil
	}
}

// startAdmin brings up the live admin plane on addr. The returned stop
// function drains the listener with a bounded timeout.
func startAdmin(addr string, stdout io.Writer) (stop func(), err error) {
	srv, err := admin.Start(addr, admin.Config{
		Snapshot:  live(func(s *crossprefetch.System) *telemetry.Snapshot { return s.Telemetry().Snapshot() }),
		Scorecard: live(func(s *crossprefetch.System) *telemetry.ScorecardSnapshot { return s.Scorecard().Snapshot() }),
		Tracer:    live((*crossprefetch.System).Tracer),
		Tiers:     live((*crossprefetch.System).Stack),
		Predictors: func() []crosslib.PredictorRow {
			if s := liveSys.Load(); s != nil {
				return s.Lib().PredictorTable()
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "admin plane on http://%s (%s)\n", srv.Addr(), strings.Join(admin.Routes(), " "))
	return func() {
		if err := srv.Shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "crosserve: admin shutdown:", err)
		}
	}, nil
}

// writeRecords archives a mode's records, one JSON object per row.
func writeRecords(path string, records []experiments.Record, stdout io.Writer) error {
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d records to %s\n", len(records), path)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crosserve:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, pick the mode's runner from the
// table, print its table and archive its records.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crosserve", flag.ContinueOnError)
	var (
		mode     = fs.String("mode", "rings", "dispatch path: sync, rings, overload, score, predict, or tier")
		tenants  = fs.Int("tenants", 8, "concurrent tenants (one file and one ring each)")
		sessions = fs.Int("sessions", 4, "client sessions per tenant")
		ops      = fs.Int("ops", 200, "reads per session")
		batch    = fs.Int("batch", 8, "SQEs staged per ring submit")
		iosize   = fs.Int64("iosize", 64<<10, "bytes per read")
		depth    = fs.Int("depth", 0, "ring admission bound (0 = 4*batch)")
		fileMB   = fs.Int64("file-mb", 16, "per-tenant file size")
		memMB    = fs.Int64("mem-mb", 0, "page-cache memory (0 = half the aggregate dataset)")
		seed     = fs.Int64("seed", 1, "replay schedule seed")
		sweep    = fs.Bool("sweep", false, "run sync and rings across 1/8/64 tenants (overload: the five policy cells)")
		jsonOut  = fs.String("json", "", "write records as JSON to this file")

		// Device-stack flags (sync/rings modes).
		stripe    = fs.Int("stripe", 0, "RAID-0 stripe width of the local tier (0 or 1 = single device)")
		tierSplit = fs.Float64("tier-split", 0, "fraction of extents starting on the remote NVMe-oF tier (0 = tier off; cross-tier prefetch on)")
		remoteRTT = fs.Duration("remote-rtt", 0, "remote tier fabric round trip (0 = default 15us)")

		// Overload-mode flags.
		budgetMB   = fs.Int64("budget-mb", 0, "overload: per-tenant hard page-cache budget in MB (soft = half; 0 = equal share of memory)")
		deadline   = fs.Duration("deadline", 0, "overload: virtual deadline attached to coverage prefetches (e.g. 50us; 0 = none)")
		antagonist = fs.Bool("antagonist", false, "overload: run the full-file-scan antagonist tenant")

		adminAddr = fs.String("admin", "", "serve the live admin plane ("+strings.Join(admin.Routes(), " ")+") on this address for the run's duration")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	// sized is the sizing flags, with what "clients" means in the mode.
	sized := func(clients int) experiments.SweepConfig {
		return experiments.SweepConfig{
			FileMB: *fileMB, IOSize: *iosize, Ops: *ops, Clients: clients, Seed: *seed,
			Observe: func(sys *crossprefetch.System) { liveSys.Store(sys) },
		}
	}
	// serve is the sync/rings frontend: its systems take the -stripe /
	// -tier-split / -remote-rtt stack shape (RAID-0 at the requested
	// width; a remote NVMe-oF tier holding tierSplit of the extents with
	// cross-tier prefetch on) and the full live plane.
	serve := func() (*experiments.Report, error) {
		c := experiments.ServeConfig{SweepConfig: sized(*sessions), Batch: *batch, Depth: *depth}
		c.Build = func(memory int64) *crossprefetch.System {
			if *memMB > 0 {
				memory = *memMB << 20
			}
			cfg := crossprefetch.Config{
				MemoryBytes:     memory,
				Approach:        crossprefetch.CrossPredictOpt,
				Plug:            true,
				Telemetry:       true,
				Trace:           true,
				Scorecard:       true,
				CongestionLimit: simtime.Second,
				Stripe:          *stripe,
			}
			if *tierSplit > 0 {
				cfg.Tier = blockdev.TierConfig{Enabled: true, RemoteFrac: *tierSplit, CrossTierPrefetch: true}
				if *remoteRTT > 0 {
					cfg.Tier.Remote = blockdev.RemoteNVMeConfigRTT(simtime.Duration(*remoteRTT))
				}
			}
			return crossprefetch.NewSystem(cfg)
		}
		if *sweep {
			return experiments.ServeCells(c, nil)
		}
		return experiments.ServeCells(c, []experiments.ServeCell{{Rings: *mode == "rings", Tenants: *tenants}})
	}
	modes := []struct {
		name string
		run  func() (*experiments.Report, error)
	}{
		{"sync", serve},
		{"rings", serve},
		{"overload", func() (*experiments.Report, error) {
			c := experiments.OverloadConfig{SweepConfig: sized(*tenants), MemMB: *memMB, BudgetMB: *budgetMB}
			if !*sweep {
				// One custom cell; a budget brings brownout with it.
				c.Cells = []experiments.OverloadCell{{Name: "custom", Antagonist: *antagonist,
					Budgeted: *budgetMB > 0, Brownout: *budgetMB > 0, Deadline: simtime.Duration(*deadline)}}
			}
			return experiments.OverloadCells(c)
		}},
		{"score", func() (*experiments.Report, error) { return experiments.ScoreCells(sized(*sessions)) }},
		{"predict", func() (*experiments.Report, error) { return experiments.PredictCells(sized(0)) }},
		{"tier", func() (*experiments.Report, error) { return experiments.TierCells(sized(0)) }},
	}

	var names []string
	for _, m := range modes {
		names = append(names, m.name)
		if m.name != *mode {
			continue
		}
		if *adminAddr != "" {
			stop, err := startAdmin(*adminAddr, stdout)
			if err != nil {
				return err
			}
			defer stop()
		}
		rep, err := m.run()
		if err != nil {
			return err
		}
		rep.Table.Print(stdout)
		if *jsonOut != "" {
			return writeRecords(*jsonOut, rep.Records, stdout)
		}
		return nil
	}
	return fmt.Errorf("unknown -mode %q (want one of %s)", *mode, strings.Join(names, ", "))
}
