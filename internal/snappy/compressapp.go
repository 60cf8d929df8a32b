package snappy

import (
	"fmt"
	"sync/atomic"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/simtime"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// compressCPUPerByte is the virtual CPU cost of compressing one byte
// (~250 MB/s single-thread, Snappy's ballpark).
const compressCPUPerByte = 4 * simtime.Nanosecond

// readChunks splits each input file into this many sequential reads.
const readChunks = 2

// AppConfig describes the parallel compression run (Figure 9b): a dataset
// of FileBytes-sized files compressed by Threads workers, each opening a
// file, issuing one or two large sequential reads, compressing, writing
// the output, and moving on — a streaming access pattern whose working
// set rotates through memory.
type AppConfig struct {
	Sys *crossprefetch.System
	// Files and FileBytes size the dataset (paper: 120GB of 100MB files).
	Files     int
	FileBytes int64
	// Threads is the worker count (paper: 16).
	Threads int
}

// AppResult summarizes a compression run.
type AppResult struct {
	InBytes    int64
	OutBytes   int64
	MBPerSec   float64 // input consumed per second of virtual time
	Ratio      float64 // output/input
	Compressed int64   // files completed
	workload.Outcome
}

// RunApp provisions the dataset and compresses it in parallel.
func RunApp(cfg AppConfig) (AppResult, error) {
	sys := cfg.Sys
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	setup := sys.Timeline()
	for i := 0; i < cfg.Files; i++ {
		if err := sys.CreateSynthetic(setup, inName(i), cfg.FileBytes); err != nil {
			return AppResult{}, err
		}
	}

	approach := sys.Approach()
	var next, outBytes atomic.Int64

	// The inputs are synthetic filler: a thread draws nothing from its Rng.
	d := workload.Drive(sys.Group(), 0)
	threads := d.Go(cfg.Threads, func(th *workload.Thread, _ int) error {
		tl := th.TL
		buf := make([]byte, cfg.FileBytes)
		for {
			th.Gate()
			i := int(next.Add(1)) - 1
			if i >= cfg.Files {
				return nil
			}
			f, err := sys.Open(tl, inName(i))
			if err != nil {
				return err
			}
			if approach == crossprefetch.AppOnly || approach == crossprefetch.AppOnlyFincore {
				// The paper modifies Snappy to issue fadvise after
				// open to exploit the sequential pattern.
				f.Fadvise(tl, vfs.AdvSequential, 0, 0)
				f.Readahead(tl, 0, cfg.FileBytes)
			}
			if err := compressOne(th, sys, f, buf, cfg, &outBytes, i); err != nil {
				return err
			}
			th.Ops++
		}
	})

	var res AppResult
	var err error
	if res.Outcome, err = d.Wait(sys); err != nil {
		return AppResult{}, err
	}
	res.Compressed, res.InBytes = workload.Sum(threads)
	res.OutBytes = outBytes.Load()
	res.MBPerSec = simtime.Throughput(res.InBytes, res.Makespan)
	if res.InBytes > 0 {
		res.Ratio = float64(res.OutBytes) / float64(res.InBytes)
	}
	return res, nil
}

// compressOne reads, compresses, and writes back one file.
func compressOne(th *workload.Thread, sys *crossprefetch.System, f *crosslib.File,
	buf []byte, cfg AppConfig, out *atomic.Int64, idx int) error {

	tl := th.TL
	// Snappy reads the whole file into memory in a few big reads.
	chunk := cfg.FileBytes / readChunks
	for off := int64(0); off < cfg.FileBytes; off += chunk {
		th.Gate()
		end := off + chunk
		if end > cfg.FileBytes {
			end = cfg.FileBytes
		}
		n, err := f.ReadAt(tl, buf[off:end], off)
		if err != nil {
			return err
		}
		th.Bytes += int64(n)
	}

	// Compress (virtual CPU) — the real compression also runs so the
	// output is genuine Snappy-format data.
	tl.Advance(simtime.Duration(cfg.FileBytes) * compressCPUPerByte)
	encoded := Encode(nil, buf)
	out.Add(int64(len(encoded)))

	of, err := sys.Create(tl, outName(idx))
	if err != nil {
		return err
	}
	const wchunk = 4 << 20
	for off := 0; off < len(encoded); off += wchunk {
		th.Gate()
		end := off + wchunk
		if end > len(encoded) {
			end = len(encoded)
		}
		if _, err := of.WriteAt(tl, encoded[off:end], int64(off)); err != nil {
			return err
		}
	}
	return of.Fsync(tl)
}

func inName(i int) string  { return fmt.Sprintf("data/in-%04d.bin", i) }
func outName(i int) string { return fmt.Sprintf("data/out-%04d.sz", i) }
