// Package ycsb implements the YCSB core workloads A–F (Cooper et al.,
// SoCC'10) against the LSM store, as the paper's real-world evaluation
// (Figure 9a) runs them against RocksDB.
//
// Request distributions follow the YCSB reference implementation: a
// zipfian generator (with the standard zeta-based rejection sampling) for
// A/B/C/E/F, and a "latest" distribution for D that skews toward recently
// inserted records.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	crossprefetch "repro"
	"repro/internal/lsm"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Workload names a YCSB core workload.
type Workload byte

// The YCSB core workloads.
const (
	WorkloadA Workload = 'A' // 50% read, 50% update, zipfian
	WorkloadB Workload = 'B' // 95% read, 5% update, zipfian
	WorkloadC Workload = 'C' // 100% read, zipfian
	WorkloadD Workload = 'D' // 95% read, 5% insert, latest
	WorkloadE Workload = 'E' // 95% scan, 5% insert, zipfian
	WorkloadF Workload = 'F' // 50% read, 50% read-modify-write, zipfian
)

// String names the workload.
func (w Workload) String() string { return fmt.Sprintf("YCSB-%c", byte(w)) }

// All lists the six core workloads.
func All() []Workload {
	return []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF}
}

// zipfian is the YCSB scrambled-zipfian request generator.
type zipfian struct {
	n          int64
	theta      float64
	alpha      float64
	zetan      float64
	zeta2theta float64
	eta        float64
}

func newZipfian(n int64) *zipfian {
	const theta = 0.99
	z := &zipfian{n: n, theta: theta}
	z.zetan = zetaStatic(n, theta)
	z.zeta2theta = zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

func zetaStatic(n int64, theta float64) float64 {
	// For large n use the standard approximation to keep setup O(1)-ish.
	if n > 100_000 {
		return zetaStatic(100_000, theta) +
			(math.Pow(float64(n), 1-theta)-math.Pow(100_000, 1-theta))/(1-theta)
	}
	var sum float64
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// next draws a zipfian-distributed index in [0, n).
func (z *zipfian) next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// scramble spreads the zipfian head across the key space, as YCSB does.
func scramble(i, n int64) int64 {
	h := uint64(i) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return int64(h % uint64(n))
}

// maxScanLen bounds workload E scans (the YCSB default).
const maxScanLen = 100

// scanLen draws one scan's record count, uniform in 1…maxScanLen as the YCSB
// core workload draws it: once per scan, never per record.
func scanLen(rng *rand.Rand) int { return rng.Intn(maxScanLen) + 1 }

// Config describes one YCSB run.
type Config struct {
	// Sys is a freshly built system.
	Sys *crossprefetch.System
	// DB configures the LSM store.
	DB lsm.Options
	// Records is the loaded record count.
	Records int64
	// ValueBytes is the record size (paper: 4KB).
	ValueBytes int
	// Threads is the client count (paper: 16).
	Threads int
	// OpsPerThread is the measured operation count per client.
	OpsPerThread int64
	// Seed fixes the request streams.
	Seed int64
}

// Result summarizes one workload run.
type Result struct {
	Workload   Workload
	Ops        int64
	KopsPerSec float64
	ReadOps    int64
	WriteOps   int64
	ScanOps    int64
	workload.Outcome
}

// Run loads the store (warm-up phase, unmeasured) and executes the given
// workload's run phase.
func Run(w Workload, cfg Config) (Result, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 4096
	}
	db, err := lsm.LoadDB(lsm.BenchConfig{
		Sys: cfg.Sys, DB: cfg.DB,
		NumKeys: cfg.Records, ValueBytes: cfg.ValueBytes, Seed: cfg.Seed,
	})
	if err != nil {
		return Result{}, err
	}

	ops := cfg.OpsPerThread
	if ops <= 0 {
		ops = cfg.Records / int64(cfg.Threads)
	}

	res := Result{Workload: w}
	zipf := newZipfian(cfg.Records)
	var insertCount atomic.Int64 // shared "latest" insertion frontier

	// Continue the virtual clock from the load phase's end.
	d := workload.Drive(simtime.NewGroup(db.LoadEnd()), cfg.Seed)
	reads := make([]int64, cfg.Threads)
	writes := make([]int64, cfg.Threads)
	scans := make([]int64, cfg.Threads)
	d.Go(cfg.Threads, func(th *workload.Thread, t int) error {
		tl, rng := th.TL, th.Rng
		val := make([]byte, cfg.ValueBytes)
		rng.Read(val)
		for i := int64(0); i < ops; i++ {
			th.Gate()
			var err error
			switch {
			case w == WorkloadA && rng.Intn(100) < 50,
				w == WorkloadB && rng.Intn(100) < 5:
				k := scramble(zipf.next(rng), cfg.Records)
				err = db.Put(tl, lsm.BenchKey(k), val)
				writes[t]++
			case w == WorkloadC, w == WorkloadA, w == WorkloadB:
				k := scramble(zipf.next(rng), cfg.Records)
				_, _, err = db.Get(tl, lsm.BenchKey(k))
				reads[t]++
			case w == WorkloadD:
				if rng.Intn(100) < 5 {
					k := cfg.Records + insertCount.Add(1)
					err = db.Put(tl, lsm.BenchKey(k), val)
					writes[t]++
				} else {
					// Latest: skew toward the insertion frontier.
					off := zipf.next(rng)
					k := cfg.Records + insertCount.Load() - off
					if k < 0 {
						k = 0
					}
					_, _, err = db.Get(tl, lsm.BenchKey(k))
					reads[t]++
				}
			case w == WorkloadE:
				if rng.Intn(100) < 5 {
					err = db.Put(tl, lsm.BenchKey(cfg.Records+insertCount.Add(1)), val)
					writes[t]++
				} else {
					start := scramble(zipf.next(rng), cfg.Records)
					it := db.NewIterator(tl, false)
					if it.Seek(lsm.BenchKey(start)) {
						for n := scanLen(rng); n > 1 && it.Next(); n-- {
						}
					}
					it.Close()
					err = it.Err()
					scans[t]++
				}
			case w == WorkloadF:
				k := scramble(zipf.next(rng), cfg.Records)
				if rng.Intn(100) < 50 {
					_, _, err = db.Get(tl, lsm.BenchKey(k))
					reads[t]++
				} else {
					// Read-modify-write.
					if _, _, err = db.Get(tl, lsm.BenchKey(k)); err == nil {
						err = db.Put(tl, lsm.BenchKey(k), val)
					}
					reads[t]++
					writes[t]++
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if res.Outcome, err = d.Wait(cfg.Sys); err != nil {
		return Result{}, err
	}
	for t := 0; t < cfg.Threads; t++ {
		res.ReadOps += reads[t]
		res.WriteOps += writes[t]
		res.ScanOps += scans[t]
	}
	res.Ops = res.ReadOps + res.WriteOps + res.ScanOps
	res.KopsPerSec = res.PerSec(float64(res.Ops) / 1000)
	return res, nil
}
