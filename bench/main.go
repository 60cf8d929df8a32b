// Command bench is the repository's one benchmark: seven named workloads
// driven through the public APIs of the simulated CROSS-OS / CROSS-LIB
// stack, measured on two clocks — virtual time (what the modelled stack
// delivers) and host time (what the simulator costs to run) — end to end
// with all observability off, then layer by layer on a traced rerun of
// the same seed. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run (default: all seven)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", runSeconds, "host seconds the measured phases of a run are sized to add up to")
		trace   = flag.Int("trace", -1, "0: untraced end-to-end run, 1: traced per-layer run, -1: both")
		scale   = flag.String("scale", "full", "full, or tiny (datasets 1/128, for the smoke test)")
		repeat  = flag.Int("repeat", 0, "run the whole set N times on one seed and check the spread of every end-to-end metric against its bound")
		outFile = flag.String("out", "", "with -repeat: also write the summary as JSON to this file")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json, generated from the metric and workload tables, and exit")
	)
	flag.Parse()
	if *spec {
		doc, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(doc)
		return err
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %d outside 1..60", *seconds)
	}
	if *scale != "full" && *scale != "tiny" {
		return fmt.Errorf("-scale %q: want full or tiny", *scale)
	}
	if *trace < -1 || *trace > 1 {
		return fmt.Errorf("-trace %d: want 0, 1 or -1", *trace)
	}
	p := params{seed: *seed, seconds: *seconds, tiny: *scale == "tiny"}
	set := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		set = []workload{*w}
	}
	if *repeat > 0 {
		return runRepeat(set, p, *repeat, *outFile)
	}

	failed := false
	for i := range set {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			r, err := runOne(&set[i], p, traced)
			if err != nil {
				return err
			}
			if err := r.print(os.Stdout); err != nil {
				return err
			}
			failed = failed || r.Failed > 0
		}
	}
	if failed {
		return fmt.Errorf("outputs differ from ground truth")
	}
	return nil
}

// runOne runs one workload once, traced or not, and checks that what it
// emits is what the metric tables declare.
func runOne(w *workload, p params, traced bool) (*report, error) {
	measure := runUntraced
	if traced {
		measure = runTraced
	}
	r, err := measure(w, p)
	if err != nil {
		return nil, err
	}
	return r, r.check()
}
