// Package workload implements the paper's custom multi-threaded
// microbenchmarks (§5.2.1): 16KB reads over private or shared files, with
// sequential or random access, plus the readers+writers sharing benchmark
// of Figure 6 and the mmap benchmark of Table 4.
//
// Each workload encodes the per-approach *application* behaviour the paper
// describes: APPonly issues its own fadvise/readahead calls (sequential)
// or disables OS prefetching (random); APPonly[fincore] adds a background
// cache-poller; OSonly leaves everything to the kernel; the Cross*
// approaches go through CROSS-LIB.
package workload

import (
	"fmt"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/simtime"
	"repro/internal/vfs"
)

// MicroConfig describes one microbenchmark run.
type MicroConfig struct {
	// Sys is a freshly built system (cold cache).
	Sys *crossprefetch.System
	// Threads is the worker count.
	Threads int
	// IOSize is the per-read size (paper: 16KB).
	IOSize int64
	// TotalBytes is the aggregate data footprint across all threads
	// (paper: 200GB against 93GB of memory — 2.15×).
	TotalBytes int64
	// Shared selects one file shared by all threads (each thread owning
	// a non-overlapping region) instead of per-thread private files.
	Shared bool
	// Sequential selects streaming access within each thread's region;
	// otherwise offsets are uniformly random within the region.
	Sequential bool
	// OpsPerThread bounds the reads per thread; 0 reads each region once.
	OpsPerThread int64
	// Writers adds concurrent writer threads on the shared file (Figure 6;
	// RunMicro fails without Shared); writers update random 16KB chunks of
	// their own non-overlapping region.
	Writers int
	// Seed makes random access reproducible.
	Seed int64
}

// Result summarizes a run.
type Result struct {
	// ReadBytes and WriteBytes are the application-level volumes moved.
	ReadBytes, WriteBytes int64
	// ReadMBs and WriteMBs are aggregate throughputs over the makespan.
	ReadMBs, WriteMBs float64
	Outcome
}

// applyAppPolicy performs the APPonly open-time behaviour for a file: hint
// sequential streams and explicitly disable OS prefetching for random ones
// (the RocksDB behaviour §3.1 describes).
func applyAppPolicy(tl *simtime.Timeline, f *crosslib.File, sequential bool) {
	if sequential {
		f.Fadvise(tl, vfs.AdvSequential, 0, 0)
	} else {
		f.Fadvise(tl, vfs.AdvRandom, 0, 0)
	}
}

// RunMicro executes the microbenchmark and reports the result.
func RunMicro(cfg MicroConfig) (Result, error) {
	sys := cfg.Sys
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.IOSize <= 0 {
		cfg.IOSize = 16 << 10
	}
	if cfg.Writers > 0 && !cfg.Shared {
		return Result{}, fmt.Errorf("workload: %d writers need the shared file (Shared)", cfg.Writers)
	}
	approach := sys.Approach()
	setup := sys.Timeline()

	region := cfg.TotalBytes / int64(cfg.Threads)
	region -= region % cfg.IOSize
	if region <= 0 {
		return Result{}, fmt.Errorf("workload: total %d too small for %d threads", cfg.TotalBytes, cfg.Threads)
	}

	// Provision files.
	nFiles := cfg.Threads
	if cfg.Shared {
		nFiles = 1
	}
	for i := 0; i < nFiles; i++ {
		size := region
		if cfg.Shared {
			size = region * int64(cfg.Threads)
		}
		if err := sys.CreateSynthetic(setup, fileName(cfg.Shared, i), size); err != nil {
			return Result{}, err
		}
	}

	ops := cfg.OpsPerThread
	if ops <= 0 {
		ops = region / cfg.IOSize
	}

	d := Drive(sys.Group(), cfg.Seed)
	readers := d.Go(cfg.Threads, func(th *Thread, t int) error {
		tl := th.TL
		f, err := sys.Open(tl, fileName(cfg.Shared, t))
		if err != nil {
			return err
		}
		base := int64(0)
		if cfg.Shared {
			base = int64(t) * region
		}
		if approach == crosslib.AppOnly || approach == crosslib.AppOnlyFincore {
			applyAppPolicy(tl, f, cfg.Sequential)
		}
		buf := make([]byte, cfg.IOSize)
		chunks := region / cfg.IOSize
		for i := int64(0); i < ops; i++ {
			th.Gate()
			var off int64
			if cfg.Sequential {
				off = base + (i%chunks)*cfg.IOSize
			} else {
				off = base + th.Rng.Int63n(chunks)*cfg.IOSize
			}
			if approach == crosslib.AppOnly && cfg.Sequential && i%64 == 0 {
				// App-tailored prefetching: readahead ahead of the
				// stream (clamped by the kernel — Figure 1).
				f.Readahead(tl, off, 4<<20)
			}
			if approach == crosslib.AppOnlyFincore && i%64 == 0 {
				f.FincorePollStep(tl, 4<<20/sys.Config().BlockSize)
			}
			n, err := f.ReadAt(tl, buf, off)
			if err != nil {
				return err
			}
			th.Bytes += int64(n)
		}
		return nil
	})

	// Figure 6 writers.
	writers := d.Go(cfg.Writers, func(th *Thread, w int) error {
		tl := th.TL
		f, err := sys.Open(tl, fileName(true, 0))
		if err != nil {
			return err
		}
		// Writers own the tail end of each reader region to stay
		// non-overlapping with other writers.
		buf := make([]byte, cfg.IOSize)
		wRegion := region * int64(cfg.Threads) / int64(cfg.Writers)
		wBase := int64(w) * wRegion
		chunks := wRegion / cfg.IOSize
		for i := int64(0); i < ops; i++ {
			th.Gate()
			off := wBase + th.Rng.Int63n(chunks)*cfg.IOSize
			n, err := f.WriteAt(tl, buf, off)
			if err != nil {
				return err
			}
			th.Bytes += int64(n)
		}
		return nil
	})

	var res Result
	var err error
	if res.Outcome, err = d.Wait(sys); err != nil {
		return Result{}, err
	}
	_, res.ReadBytes = Sum(readers)
	_, res.WriteBytes = Sum(writers)
	res.ReadMBs = simtime.Throughput(res.ReadBytes, res.Makespan)
	res.WriteMBs = simtime.Throughput(res.WriteBytes, res.Makespan)
	return res, nil
}

func fileName(shared bool, i int) string {
	if shared {
		return "shared.dat"
	}
	return fmt.Sprintf("private-%d.dat", i)
}
