// Command crossbench regenerates the paper's tables and figures and runs
// the serving-tier sweeps (serve, overload, score, predict, tier), every
// one a cell table on the one runner in internal/experiments.
//
// Usage:
//
//	crossbench -list
//	crossbench -exp fig7a [-scale 8] [-seed 1] [-csv out.csv]
//	crossbench -exp all [-quick]
//	crossbench -exp tier -json testdata/sweeps
//	crossbench -exp serve -admin :9090
//
// -json DIR writes DIR/<id>.json, one JSON object per table row, for every
// experiment run whose fields declare record keys (the five serving-tier
// sweeps and chaos);
// testdata/sweeps holds their full-scale records, which `make digests`
// regenerates and compares byte for byte.
//
// -admin serves the live observability plane for the run's duration and
// implies -telemetry: /metrics (Prometheus text with HELP metadata),
// /scorecards (per-file and per-tenant effectiveness JSON with
// interval-rate deltas since the previous scrape, filterable by ?tenant= /
// ?inode=), /predictors (the live per-inode predictor-arm table), /tiers
// (the device stack's per-backend occupancy, tier residency, and extent
// heat table), /tracez (the span flight recorder's slowest retained
// roots), and /debug/pprof. Every cell's system becomes the live one as it
// starts; the listener drains with a bounded timeout on exit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	crossprefetch "repro"
	"repro/internal/admin"
	"repro/internal/crosslib"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// catalog is where run looks experiments up: the registry, which a test
// may stand in for.
var catalog = struct {
	ids func() []string
	get func(id string) (experiments.Runner, error)
}{experiments.IDs, experiments.Get}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// liveView reads one view of the live system for an admin endpoint; the
// zero value (no cell running yet) becomes the endpoint's 503.
func liveView[T any](live *atomic.Pointer[crossprefetch.System], view func(*crossprefetch.System) T) func() T {
	return func() T {
		if s := live.Load(); s != nil {
			return view(s)
		}
		var none T
		return none
	}
}

// startAdmin brings up the live admin plane on addr, reading whichever
// system live holds.
func startAdmin(addr string, live *atomic.Pointer[crossprefetch.System], stdout io.Writer) (*admin.Server, error) {
	srv, err := admin.Start(addr, admin.Config{
		Snapshot:   liveView(live, func(s *crossprefetch.System) *telemetry.Snapshot { return s.Telemetry().Snapshot() }),
		Scorecard:  liveView(live, func(s *crossprefetch.System) *telemetry.ScorecardSnapshot { return s.Scorecard().Snapshot() }),
		Tracer:     liveView(live, (*crossprefetch.System).Tracer),
		Tiers:      liveView(live, (*crossprefetch.System).Stack),
		Predictors: liveView(live, func(s *crossprefetch.System) []crosslib.PredictorRow { return s.Lib().PredictorTable() }),
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "admin plane on http://%s (%s)\n", srv.Addr(), strings.Join(admin.Routes(), " "))
	return srv, nil
}

// telemetryRecord is one audited system in the -telemetry-json output.
type telemetryRecord struct {
	Experiment string              `json:"experiment"`
	System     string              `json:"system"`
	Audit      string              `json:"audit"` // "ok" or the violation list
	Snapshot   *telemetry.Snapshot `json:"snapshot"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, run each experiment, print its
// table and write what the flags ask for. An experiment that fails does
// not stop the ones after it; run returns every failure, joined, once the
// rest is done. Every file it opens is closed,
// and the admin listener drained, on every return path.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("crossbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "experiment ID (see -list), or \"all\"")
		list    = fs.Bool("list", false, "list available experiments")
		scale   = fs.Int64("scale", 0, "capacity divisor (0 = experiment default)")
		quick   = fs.Bool("quick", false, "smoke-test sizes")
		seed    = fs.Int64("seed", 1, "random seed")
		csv     = fs.String("csv", "", "also write results as CSV to this file")
		jsonDir = fs.String("json", "", "write each experiment's records as JSON to <id>.json in this directory (experiments with record keys only)")
		tel     = fs.Bool("telemetry", false, "record and audit cross-layer telemetry per system")
		telJSON = fs.String("telemetry-json", "", "write telemetry snapshots as JSON to this file (implies -telemetry)")

		trace       = fs.String("trace", "", "write sampled spans as Chrome trace-event JSON (Perfetto-loadable) to this file (implies -telemetry)")
		traceSample = fs.Int64("trace-sample", 1, "trace 1-in-N top-level operations")
		traceInode  = fs.Bool("trace-per-inode", false, "sample whole inodes instead of 1-in-N operations")
		traceReport = fs.Bool("trace-report", false, "print the critical-path report for retained slow spans (implies -trace sampling)")
		prom        = fs.String("prom", "", "write the last audited system's telemetry as Prometheus text exposition to this file (implies -telemetry)")
		adminAddr   = fs.String("admin", "", "serve the live admin plane ("+strings.Join(admin.Routes(), " ")+") on this address for the run's duration (implies -telemetry)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "  %-7s %s\n", id, experiments.Describe(id))
		}
		if !*list {
			return errors.New("no -exp given")
		}
		return nil
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = catalog.ids()
	}
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		if runners[i], err = catalog.get(id); err != nil {
			return err
		}
	}

	// The deferred closes and stops below join their errors into err, so
	// the blocks that set them up assign err rather than shadow it.
	var csvOut *os.File
	if *csv != "" {
		if csvOut, err = os.Create(*csv); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, csvOut.Close()) }()
	}

	opts := experiments.Options{Scale: *scale, Quick: *quick, Seed: *seed,
		Telemetry: *tel || *telJSON != "" || *prom != "" || *adminAddr != ""}
	if *trace != "" || *traceReport {
		opts.Trace = &telemetry.TraceConfig{SampleEvery: *traceSample, PerInode: *traceInode, Seed: *seed}
	}
	if *adminAddr != "" {
		var live atomic.Pointer[crossprefetch.System]
		var srv *admin.Server
		if srv, err = startAdmin(*adminAddr, &live, stdout); err != nil {
			return err
		}
		// Shutdown drains the listener with a bounded timeout.
		defer func() { err = errors.Join(err, srv.Shutdown()) }()
		opts.Observe = live.Store
	}

	// A failing experiment does not stop the ones after it: its error
	// joins failed, which the run returns once everything else is done.
	var failed error
	var telRecords []telemetryRecord
	var traceProcs []telemetry.TraceProcess
	var lastSnapshot *telemetry.Snapshot
	for i, id := range ids {
		start := time.Now()
		rep, err := runners[i](opts)
		if err != nil {
			failed = errors.Join(failed, fmt.Errorf("%s: %w", id, err))
			continue
		}
		tbl := rep.Table
		tbl.Note("wall time %s", time.Since(start).Round(time.Millisecond))
		tbl.Print(stdout)
		if csvOut != nil {
			fmt.Fprintf(csvOut, "# %s: %s\n", tbl.ID, tbl.Title)
			if err := tbl.WriteCSV(csvOut); err != nil {
				return err
			}
		}
		if *jsonDir != "" && len(rep.Records) > 0 {
			path := filepath.Join(*jsonDir, id+".json")
			if err := writeJSON(path, rep.Records); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d records to %s\n", len(rep.Records), path)
		}
		// Every listed system passed its audit: the runner fails otherwise.
		for _, cs := range rep.Systems {
			snap := cs.Sys.Metrics().Telemetry
			fmt.Fprintf(stdout, "telemetry %s %s: audit ok (prefetch effectiveness %.2f, %d events)\n",
				id, cs.Cell, snap.PrefetchEffectiveness(), snap.EventsTotal)
			telRecords = append(telRecords, telemetryRecord{
				Experiment: id, System: cs.Cell, Audit: "ok", Snapshot: snap,
			})
			lastSnapshot = snap
			if tr := cs.Sys.Tracer(); tr != nil {
				traceProcs = append(traceProcs, telemetry.TraceProcess{Name: id + " " + cs.Cell, Tracer: tr})
			}
		}
	}

	defer func() { err = errors.Join(failed, err) }()
	if *trace != "" {
		f, err := os.Create(*trace)
		if err == nil {
			err = telemetry.WriteChromeTrace(f, traceProcs)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: wrote %d process(es) to %s (load in Perfetto: ui.perfetto.dev)\n",
			len(traceProcs), *trace)
	}
	if *traceReport {
		if err := telemetry.WriteCriticalPathReport(stdout, traceProcs); err != nil {
			return err
		}
	}
	if *prom != "" {
		if lastSnapshot == nil {
			return errors.New("-prom: no telemetry snapshot recorded")
		}
		f, err := os.Create(*prom)
		if err == nil {
			err = lastSnapshot.WritePrometheus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
	}
	if *telJSON != "" {
		return writeJSON(*telJSON, telRecords)
	}
	return nil
}
