package experiments

import (
	"bytes"
	"fmt"
	"math/rand"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/faultinject"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Chaos is the fault-injection resilience harness: it replays the same
// deterministic read/write workload under a sweep of fault plans and
// checks graceful degradation — every successfully returned byte is
// correct, failed I/O never poisons the cache (the telemetry audit's
// poisoning guard reconciles), transient faults are absorbed by
// retries, persistent faults surface as errors and trip the per-file
// circuit breaker, and the faulty cells stay within a bounded slowdown
// of the fault-free baseline. Like every cell, each plan runs twice and
// must reproduce its virtual-time schedule.
func Chaos(o Options) (*Report, error) {
	size := int64(32 << 20)
	if o.Quick {
		size = 8 << 20
	}
	seed := uint64(o.Seed + 1) // plan seed 0 is fine, but keep cells distinct from default hashes

	// 10% of read sites and 2% of write sites glitch transiently, plus a
	// "brownout" over the blocks backing the file's second quarter where
	// every read glitches. Scattered sites clear after 2 attempts; the
	// brownout needs 4, so one library prefetch (initial + RetryMax=1
	// retry) fails definitively and the *next* prefetch of the returned
	// range fails definitively again — two consecutive failures, tripping
	// the breaker — while the cell's DemandRetries=4 keeps demand reads
	// byte-correct. That walks the breaker through trip -> cool-off ->
	// probe -> recovery deterministically at every scale.
	transientPlan := &faultinject.Plan{
		Seed:             seed,
		ReadFailProb:     0.10,
		WriteFailProb:    0.02,
		TransientFrac:    1.0,
		TransientRepeats: 2,
		// Filled per-cell from the file's physical mapping; see chaosCell.
		Ranges: []faultinject.RangeFault{{Class: faultinject.Transient, Reads: true, Repeats: 4}},
	}
	persistentPlan := &faultinject.Plan{
		Seed: seed,
		// Filled per-cell from the file's physical mapping; see chaosCell.
		Ranges: []faultinject.RangeFault{{Class: faultinject.Persistent, Reads: true}},
	}

	opt := crossprefetch.CrossPredictOpt.Options()
	// An aggressive breaker so a 10% fault plan exercises the full
	// open -> cool-off -> probe -> close cycle within one cell. The
	// prefetch window is capped well below the brownout span so the
	// brownout produces *consecutive* failing calls at every scale (one
	// giant window would fail once, succeed on the next, and never trip
	// a consecutive-failure breaker).
	opt.RetryMax = 1
	opt.BreakerThreshold = 2
	opt.BreakerCooloff = 2 * simtime.Millisecond
	opt.FaultSeed = o.Seed
	opt.MaxPrefetchBytes = 512 << 10
	cfg := crossprefetch.Config{
		Approach:    crossprefetch.CrossPredictOpt,
		MemoryBytes: size * 8, // no memory pressure: isolate fault effects
		LibOptions:  &opt,
		Telemetry:   true, // the audit is the poisoning guard
		// One more blocking retry than default so the brownout's
		// Repeats=4 sites stay inside the demand-read budget.
		DemandRetries: 4,
	}

	vs := vsFirst(func(r chaosResult) float64 { return float64(r.makespan) })
	s := sweep[*row[chaosResult]]{
		table: &Table{ID: "chaos", Title: "Fault-plan sweep: correctness and degradation vs fault-free baseline"},
		// Keyed, so `make digests` pins every retry and breaker outcome.
		fields: []field[*row[chaosResult]]{
			{"plan", "plan", "%s", func(r *row[chaosResult]) any { return r.name }},
			keyed("makespan_ms", metric("makespan(ms)", "%.2f", func(r chaosResult) any { return float64(r.makespan) / float64(simtime.Millisecond) })),
			keyed("slowdown", vsCol[chaosResult]("slowdown")),
			keyed("faults", metric("faults", "%d", func(r chaosResult) any { return r.injected })),
			keyed("read_errs", metric("read-errs", "%d", func(r chaosResult) any { return r.readErrs })),
			keyed("retries", metric("retries", "%d", func(r chaosResult) any { return r.stats.PrefetchRetries })),
			keyed("trips", metric("trips", "%d", func(r chaosResult) any { return r.stats.BreakerTrips })),
			keyed("recoveries", metric("recoveries", "%d", func(r chaosResult) any { return r.stats.BreakerRecoveries })),
			keyed("dropped", metric("dropped", "%d", func(r chaosResult) any { return r.stats.DroppedBreaker })),
			keyed("lost_pages", metric("lost-pages", "%d", func(r chaosResult) any { return r.lost })),
			// Every library counter, so the rerun reproduces them all.
			keyed("lib_stats", metric("", "", func(r chaosResult) any { return r.stats })),
		},
		contract: func(rows []*row[chaosResult], at func(string) *row[chaosResult]) error {
			if err := vs(rows, at); err != nil {
				return err
			}
			return chaosContract(at("baseline").res, at("transient10").res, at("persistent-range").res)
		},
	}
	for _, c := range []struct {
		name string
		plan *faultinject.Plan
	}{{"baseline", nil}, {"transient10", transientPlan}, {"persistent-range", persistentPlan}} {
		s.cells = append(s.cells, cellOf("", c.name, cfg, func(sys *crossprefetch.System) (chaosResult, error) {
			return chaosCell(sys, o, size, c.plan)
		}))
	}
	s.table.Note("every successfully returned byte verified against ground truth; telemetry audit (incl. cache-poisoning guard) passed in all cells")
	s.table.Note("transient10 executed twice with identical virtual-time schedules (determinism check)")
	return s.run(o)
}

// chaosContract is graceful degradation: no fault on the fault-free
// device, transient faults absorbed by retries with the breaker tripping
// and recovering within a bounded slowdown, and a dead range surfacing as
// read errors that trip the breaker.
func chaosContract(baseline, transient, persistent chaosResult) error {
	if baseline.readErrs != 0 || baseline.injected != 0 {
		return fmt.Errorf("baseline: %d read errors / %d injected faults on a fault-free device",
			baseline.readErrs, baseline.injected)
	}
	if transient.readErrs != 0 {
		return fmt.Errorf("transient10: %d read errors escaped the retry budget", transient.readErrs)
	}
	if transient.stats.PrefetchRetries == 0 {
		return fmt.Errorf("transient10: no prefetch retries under a 10%% fault rate")
	}
	if transient.stats.BreakerTrips == 0 || transient.stats.BreakerRecoveries == 0 {
		return fmt.Errorf("transient10: breaker trips=%d recoveries=%d, want both >= 1",
			transient.stats.BreakerTrips, transient.stats.BreakerRecoveries)
	}
	if transient.lost != 0 {
		return fmt.Errorf("transient10: %d writeback pages lost although all faults clear", transient.lost)
	}
	const slowdownBound = 3.0
	if float64(transient.makespan) > slowdownBound*float64(baseline.makespan) {
		return fmt.Errorf("transient10: makespan %v > %.1fx baseline %v",
			transient.makespan, slowdownBound, baseline.makespan)
	}
	if persistent.readErrs == 0 {
		return fmt.Errorf("persistent-range: no read error surfaced from a dead range")
	}
	if persistent.stats.BreakerTrips == 0 {
		return fmt.Errorf("persistent-range: breaker never tripped")
	}
	return nil
}

// chaosResult is the comparable observable vector of one cell; two runs
// of the same plan must produce identical values.
type chaosResult struct {
	makespan simtime.Duration
	readErrs int64
	injected int64
	lost     int64
	stats    crosslib.Stats
}

// chaosCell runs the standard chaos workload on sys under one fault plan
// (nil = fault-free) and verifies byte-correctness.
func chaosCell(sys *crossprefetch.System, o Options, size int64, plan *faultinject.Plan) (chaosResult, error) {
	tl := sys.Timeline()
	if err := sys.CreateSynthetic(tl, "chaos.dat", size); err != nil {
		return chaosResult{}, err
	}
	truth, err := sys.FS().Open("chaos.dat")
	if err != nil {
		return chaosResult{}, err
	}

	if plan != nil {
		p := *plan
		if len(p.Ranges) == 1 && p.Ranges[0].Hi == 0 {
			// Range placeholder: kill the device blocks backing a
			// 64-block (256KB) stretch starting a quarter into the
			// file, wherever the allocator put them. That spans a
			// handful of background-prefetch windows — enough
			// consecutive definitive failures to trip the breaker —
			// while keeping the expensive demand-retried region small
			// so degradation stays bounded.
			bs := sys.FS().BlockSize()
			blocks := size / bs
			// A fresh slice: the plan is shared by the cell's two runs.
			dir := p.Ranges[0]
			p.Ranges = nil
			for _, pr := range truth.MapRange(blocks/4, blocks/4+64) {
				p.Ranges = append(p.Ranges, faultinject.RangeFault{
					Lo: pr.Phys * bs, Hi: (pr.Phys + pr.Count) * bs,
					Class: dir.Class, Reads: dir.Reads, Writes: dir.Writes,
					Repeats: dir.Repeats,
				})
			}
		}
		sys.Device().SetFaultInjector(faultinject.New(p))
	}

	var res chaosResult
	f, err := sys.Open(tl, "chaos.dat")
	if err != nil {
		return res, err
	}
	const chunk = 16 << 10
	buf := make([]byte, chunk)
	want := make([]byte, chunk)
	verify := func(off int64, n int) error {
		truth.ReadAt(want[:n], off)
		if !bytes.Equal(buf[:n], want[:n]) {
			return fmt.Errorf("corrupt data at offset %d", off)
		}
		return nil
	}

	// Phase 1: sequential scan of the whole file.
	for off := int64(0); off < size; off += chunk {
		n, err := f.ReadAt(tl, buf, off)
		if err != nil {
			res.readErrs++
			continue
		}
		if err := verify(off, n); err != nil {
			return res, err
		}
	}
	// Phase 2: seeded random reads.
	rng := rand.New(rand.NewSource(o.Seed + 17))
	reads := int64(256)
	if o.Quick {
		reads = 64
	}
	for i := int64(0); i < reads; i++ {
		off := rng.Int63n(size/chunk) * chunk
		n, err := f.ReadAt(tl, buf, off)
		if err != nil {
			res.readErrs++
			continue
		}
		if err := verify(off, n); err != nil {
			return res, err
		}
	}
	// Phase 3: write a fresh file, fsync, read it back.
	out, err := sys.Create(tl, "chaos.out")
	if err != nil {
		return res, err
	}
	wbuf := make([]byte, chunk)
	outSize := size / 4
	for off := int64(0); off < outSize; off += chunk {
		for i := range wbuf {
			wbuf[i] = byte(off>>12) + byte(i)
		}
		if _, err := out.WriteAt(tl, wbuf, off); err != nil {
			return res, fmt.Errorf("write at %d: %w", off, err)
		}
	}
	if err := out.Fsync(tl); err != nil {
		return res, fmt.Errorf("fsync: %w", err)
	}
	for off := int64(0); off < outSize; off += chunk {
		n, err := out.ReadAt(tl, buf, off)
		if err != nil {
			res.readErrs++
			continue
		}
		for i := 0; i < n; i++ {
			if buf[i] != byte(off>>12)+byte(i) {
				return res, fmt.Errorf("corrupt written data at offset %d", off+int64(i))
			}
		}
	}
	f.Close(tl)
	out.Close(tl)

	res.makespan = tl.Elapsed()
	res.stats = sys.Lib().Stats()
	res.injected = sys.Device().Stats().InjectedFaults
	res.lost = sys.Telemetry().CounterValue(telemetry.CtrWritebackLostPages)
	return res, nil
}
