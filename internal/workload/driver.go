package workload

import (
	"math/rand"

	crossprefetch "repro"
	"repro/internal/simtime"
)

// Driver is how every multi-thread workload of the evaluation (the
// microbenchmarks here, filebench, ycsb, db_bench, the Snappy app) launches,
// seeds, gates, counts, fails and measures its threads. The contract:
//
//   - Go launches n members of the group; member ids are launch order across
//     every Go call on one group (Figure 6's readers and writers share one).
//   - The driver owns the seed: member id draws from
//     rand.NewSource(seed + 7919·id) and from nothing else.
//   - The body owns the Gates: one th.Gate() at each operation boundary,
//     holding no locks. Where Gate sits is what holds virtual time, so the
//     driver never gates on a body's behalf.
//   - A body that returns an error ends its thread, and Wait fails the run
//     with the first error in launch order.
//
// It lives here and not in simtime because Outcome carries
// crossprefetch.Metrics, and simtime cannot import the root package.
type Driver struct {
	g       *simtime.Group
	seed    int64
	threads []*Thread
}

// Thread is one simulated thread: its group id, its timeline, its PRNG and
// the two counters a body may keep. All of it belongs to the thread until
// Wait returns.
type Thread struct {
	ID         int
	TL         *simtime.Timeline
	Rng        *rand.Rand
	Ops, Bytes int64

	g   *simtime.Group
	err error
}

// Gate publishes the thread's virtual time and passes the group's baton to
// the member that is furthest behind, which may be this one
// (simtime.Group.Gate).
func (th *Thread) Gate() { th.g.Gate(th.ID, th.TL) }

// Drive returns a driver launching on g whose threads draw from seed.
func Drive(g *simtime.Group, seed int64) *Driver { return &Driver{g: g, seed: seed} }

// Go launches n threads running body(th, i), i = 0…n-1, and returns them so
// that the caller can Sum what this launch counted after Wait.
func (d *Driver) Go(n int, body func(th *Thread, i int) error) []*Thread {
	launched := make([]*Thread, n)
	for i := range launched {
		th := &Thread{g: d.g}
		launched[i] = th
		d.g.Go(func(id int, tl *simtime.Timeline) {
			th.ID, th.TL = id, tl
			th.Rng = rand.New(rand.NewSource(d.seed + 7919*int64(id)))
			th.err = body(th, i)
		})
	}
	d.threads = append(d.threads, launched...)
	return launched
}

// Outcome is what every run reports beside its own counts.
type Outcome struct {
	// Makespan is the virtual duration of the slowest thread.
	Makespan simtime.Duration
	// MissPct is the page-cache miss rate (Table 3 / Table 1).
	MissPct float64
	// LockPct is lock wait as a share of total thread time (Table 1).
	LockPct float64
	// Group carries the raw thread accounting.
	Group simtime.GroupStats
	// Metrics is the end-of-run cross-layer snapshot.
	Metrics crossprefetch.Metrics
}

// Wait blocks until every launched thread has returned. The first error in
// launch order fails the run; otherwise the group's accounting and sys's
// metrics are snapshotted into the Outcome.
func (d *Driver) Wait(sys *crossprefetch.System) (Outcome, error) {
	d.g.Wait()
	for _, th := range d.threads {
		if th.err != nil {
			return Outcome{}, th.err
		}
	}
	gs := d.g.Stats()
	m := sys.Metrics()
	return Outcome{
		Makespan: gs.Makespan,
		MissPct:  m.Cache.MissPercent(),
		LockPct:  gs.LockPercent(),
		Group:    gs,
		Metrics:  m,
	}, nil
}

// PerSec is n per second of the makespan (0 for an empty run).
func (o Outcome) PerSec(n float64) float64 {
	if o.Makespan <= 0 {
		return 0
	}
	return n / o.Makespan.Seconds()
}

// Sum adds the threads' counters. Call it after Wait.
func Sum(threads []*Thread) (ops, bytes int64) {
	for _, th := range threads {
		ops += th.Ops
		bytes += th.Bytes
	}
	return ops, bytes
}
