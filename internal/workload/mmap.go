package workload

import (
	"fmt"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/simtime"
	"repro/internal/vfs"
)

// mmapLoadSize is the bytes touched per access (paper: 16KB batches).
const mmapLoadSize = 16 << 10

// MmapConfig describes the Table 4 mmap benchmark: threads load a shared
// mapped file sequentially or randomly.
type MmapConfig struct {
	Sys        *crossprefetch.System
	Threads    int
	TotalBytes int64
	Sequential bool
	Seed       int64
}

// RunMmap executes the mmap benchmark.
func RunMmap(cfg MmapConfig) (Result, error) {
	sys := cfg.Sys
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	approach := sys.Approach()
	setup := sys.Timeline()

	region := cfg.TotalBytes / int64(cfg.Threads)
	region -= region % mmapLoadSize
	if region <= 0 {
		return Result{}, fmt.Errorf("workload: mmap total %d too small", cfg.TotalBytes)
	}
	if err := sys.CreateSynthetic(setup, "mmap.dat", region*int64(cfg.Threads)); err != nil {
		return Result{}, err
	}

	d := Drive(sys.Group(), cfg.Seed)
	threads := d.Go(cfg.Threads, func(th *Thread, t int) error {
		tl := th.TL
		f, err := sys.Open(tl, "mmap.dat")
		if err != nil {
			return err
		}
		m := sys.Lib().Mmap(tl, f)
		if approach == crosslib.AppOnly || approach == crosslib.AppOnlyFincore {
			// The paper: APPonly turns prefetching off via madvise.
			m.Kernel().Madvise(tl, vfs.AdvRandom)
		}
		base := int64(t) * region
		chunks := region / mmapLoadSize
		for i := int64(0); i < chunks; i++ {
			th.Gate()
			var off int64
			if cfg.Sequential {
				off = base + i*mmapLoadSize
			} else {
				off = base + th.Rng.Int63n(chunks)*mmapLoadSize
			}
			if err := m.Load(tl, off, mmapLoadSize, nil); err != nil {
				return err
			}
			th.Bytes += mmapLoadSize
		}
		return nil
	})

	var res Result
	var err error
	if res.Outcome, err = d.Wait(sys); err != nil {
		return Result{}, err
	}
	_, res.ReadBytes = Sum(threads)
	res.ReadMBs = simtime.Throughput(res.ReadBytes, res.Makespan)
	return res, nil
}
