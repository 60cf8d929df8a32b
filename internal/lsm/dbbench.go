package lsm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	crossprefetch "repro"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Workload names the db_bench-style access patterns used in the paper's
// evaluation (Figures 2, 7, 10; Tables 1 and 5).
type Workload string

// db_bench workloads.
const (
	FillSeq         Workload = "fillseq"
	FillRandom      Workload = "fillrandom"
	ReadRandom      Workload = "readrandom"
	ReadSeq         Workload = "readseq"
	ReadReverse     Workload = "readreverse"
	ReadScan        Workload = "readscan"
	MultiReadRandom Workload = "multireadrandom"
)

// batchKeys is the multireadrandom batch length.
const batchKeys int64 = 8

// BenchConfig describes one db_bench run.
type BenchConfig struct {
	// Sys is a freshly built system.
	Sys *crossprefetch.System
	// DB overrides the store options (Sys is filled in automatically).
	DB Options
	// NumKeys is the database size in keys.
	NumKeys int64
	// ValueBytes is the value size.
	ValueBytes int
	// Threads is the client thread count.
	Threads int
	// Workload is the measured access pattern.
	Workload Workload
	// OpsPerThread bounds the measured operations (0 = NumKeys/Threads).
	OpsPerThread int64
	// Seed fixes the random streams.
	Seed int64
}

// BenchResult summarizes a run.
type BenchResult struct {
	Ops int64
	// KopsPerSec is thousands of operations per second of virtual time.
	KopsPerSec float64
	// MBPerSec is application data volume over the makespan.
	MBPerSec float64
	workload.Outcome
	DB Stats
}

func (r BenchResult) String() string {
	return fmt.Sprintf("%.0f kops/s (%.1f MB/s), miss %.1f%%, lock %.1f%%",
		r.KopsPerSec, r.MBPerSec, r.MissPct, r.LockPct)
}

// BenchKey formats key i in db_bench style: "key" and i in decimal,
// zero-padded to 16 characters after any sign (fmt's "key%016d", without
// its boxing and parsing).
func BenchKey(i int64) string {
	var buf, num [24]byte
	b := append(buf[:0], "key"...)
	u, width := uint64(i), 16
	if i < 0 {
		b = append(b, '-')
		u, width = -u, 15
	}
	d := strconv.AppendUint(num[:0], u, 10)
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// benchValue builds a deterministic value.
func benchValue(i int64, size int) []byte {
	return fillBenchValue(make([]byte, size), i)
}

// fillBenchValue writes value i into v and returns v: the little-endian
// words of a linear congruential sequence seeded by i, the last word cut
// at len(v).
func fillBenchValue(v []byte, i int64) []byte {
	x := uint64(i)*6364136223846793005 + 1442695040888963407
	j := 0
	for ; j+8 <= len(v); j += 8 {
		binary.LittleEndian.PutUint64(v[j:], x)
		x = x*6364136223846793005 + 1442695040888963407
	}
	for b := 0; j < len(v); j, b = j+1, b+8 {
		v[j] = byte(x >> b)
	}
	return v
}

// LoadDB creates a database and fills it with NumKeys sequential keys,
// flushing and settling compactions. The load happens on its own timeline
// (the paper measures the run phase only).
func LoadDB(cfg BenchConfig) (*DB, error) {
	tl := cfg.Sys.Timeline()
	opt := cfg.DB
	opt.Sys = cfg.Sys
	db, err := Open(tl, opt)
	if err != nil {
		return nil, err
	}
	order := make([]int64, cfg.NumKeys)
	for i := range order {
		order[i] = int64(i)
	}
	if cfg.Workload == FillRandom {
		rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
	}
	// One value buffer serves the whole load: Put copies the value into
	// the memtable and the log record.
	val := make([]byte, cfg.ValueBytes)
	for _, i := range order {
		if err := db.Put(tl, BenchKey(i), fillBenchValue(val, i)); err != nil {
			return nil, err
		}
	}
	if err := db.Flush(tl); err != nil {
		return nil, err
	}
	db.WaitIdle(tl)
	// Run-phase reads should start cold, as the paper clears the page
	// cache before each experiment.
	cfg.Sys.DropAllCaches(tl)
	db.loadEnd = tl.Now()
	return db, nil
}

// RunBench loads a database (unless the workload itself is a fill) and
// executes the measured phase across client threads.
func RunBench(cfg BenchConfig) (BenchResult, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 400
	}

	isFill := cfg.Workload == FillSeq || cfg.Workload == FillRandom
	var db *DB
	var err error
	if isFill {
		tl := cfg.Sys.Timeline()
		opt := cfg.DB
		opt.Sys = cfg.Sys
		db, err = Open(tl, opt)
	} else {
		db, err = LoadDB(cfg)
	}
	if err != nil {
		return BenchResult{}, err
	}
	return runPhase(cfg, db)
}

func runPhase(cfg BenchConfig, db *DB) (BenchResult, error) {
	ops := cfg.OpsPerThread
	if ops <= 0 {
		ops = cfg.NumKeys / int64(cfg.Threads)
		if ops < 1 {
			ops = 1
		}
	}

	// Continue the virtual clock where the load phase left off.
	d := workload.Drive(simtime.NewGroup(db.LoadEnd()), cfg.Seed)
	threads := d.Go(cfg.Threads, func(th *workload.Thread, _ int) error { return db.benchThread(th, cfg, ops) })
	var res BenchResult
	var err error
	if res.Outcome, err = d.Wait(cfg.Sys); err != nil {
		return BenchResult{}, err
	}
	var bytes int64
	res.Ops, bytes = workload.Sum(threads)
	res.KopsPerSec = res.PerSec(float64(res.Ops) / 1000)
	res.MBPerSec = simtime.Throughput(bytes, res.Makespan)
	res.DB = db.Stats()
	return res, nil
}

// benchThread runs one client thread's operation loop.
func (db *DB) benchThread(th *workload.Thread, cfg BenchConfig, ops int64) error {
	id, tl, rng := th.ID, th.TL, th.Rng
	n := cfg.NumKeys
	fincore := db.sys.Approach() == crossprefetch.AppOnlyFincore
	switch cfg.Workload {
	case FillSeq, FillRandom:
		base := int64(id) * ops
		val := make([]byte, cfg.ValueBytes) // Put copies it, as in LoadDB
		for i := int64(0); i < ops; i++ {
			th.Gate()
			k := base + i
			if cfg.Workload == FillRandom {
				k = rng.Int63n(n)
			}
			if err := db.Put(tl, BenchKey(k), fillBenchValue(val, k)); err != nil {
				return err
			}
			th.Ops++
			th.Bytes += int64(cfg.ValueBytes)
		}

	case ReadRandom:
		for i := int64(0); i < ops; i++ {
			th.Gate()
			if fincore && i%32 == 0 {
				db.FincoreStep(tl)
			}
			k := rng.Int63n(n)
			v, _, err := db.Get(tl, BenchKey(k))
			if err != nil {
				return err
			}
			th.Ops++
			th.Bytes += int64(len(v))
		}

	case MultiReadRandom:
		// Batched-but-random: each operation reads batchKeys consecutive
		// keys from a random start (§3.4's "batched multi-read random").
		for i := int64(0); i < ops; i += batchKeys {
			th.Gate()
			if fincore && i%(32*batchKeys) == 0 {
				db.FincoreStep(tl)
			}
			start := rng.Int63n(n - batchKeys)
			keys := make([]string, batchKeys)
			for j := int64(0); j < batchKeys; j++ {
				keys[j] = BenchKey(start + j)
			}
			if _, err := db.MultiGet(tl, keys); err != nil {
				return err
			}
			th.Ops += batchKeys
			th.Bytes += batchKeys * int64(cfg.ValueBytes)
		}

	case ReadSeq:
		// Each thread scans its own shard of the key space.
		shard := n / int64(cfg.Threads)
		it := db.NewIterator(tl, false)
		defer it.Close()
		if !it.Seek(BenchKey(int64(id) * shard)) {
			return it.Err()
		}
		for i := int64(0); i < ops && it.valid; i++ {
			th.Gate()
			th.Ops++
			th.Bytes += int64(len(it.Value()))
			if !it.Next() {
				break
			}
		}
		return it.Err()

	case ReadReverse:
		// Each thread reverse-scans its own shard of the key space, so
		// threads cover distinct cold data (as db_bench's per-thread
		// cursors do) rather than drafting behind one another.
		shard := n / int64(cfg.Threads)
		it := db.NewIterator(tl, true)
		defer it.Close()
		if !it.SeekBack(BenchKey(int64(id+1)*shard - 1)) {
			return it.Err()
		}
		for i := int64(0); i < ops && it.valid; i++ {
			th.Gate()
			th.Ops++
			th.Bytes += int64(len(it.Value()))
			if !it.Next() {
				break
			}
		}
		return it.Err()

	case ReadScan:
		// Read-while-scanning: point reads interleaved with short scans.
		for i := int64(0); i < ops; {
			th.Gate()
			k := rng.Int63n(n)
			if i%8 == 0 {
				it := db.NewIterator(tl, false)
				if it.Seek(BenchKey(k)) {
					for j := 0; j < 32 && it.valid; j++ {
						th.Bytes += int64(len(it.Value()))
						i++
						th.Ops++
						if !it.Next() {
							break
						}
					}
				} else {
					i++
				}
				it.Close()
				if err := it.Err(); err != nil {
					return err
				}
				continue
			}
			v, _, err := db.Get(tl, BenchKey(k))
			if err != nil {
				return err
			}
			th.Bytes += int64(len(v))
			i++
			th.Ops++
		}

	default:
		return fmt.Errorf("lsm: unknown workload %q", cfg.Workload)
	}
	return nil
}
