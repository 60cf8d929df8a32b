// Package filebench implements a Filebench-style profile-driven workload
// engine for the paper's multi-instance evaluation (§5.4, Figure 8b): 16
// concurrent instances of seqread, randread, a metadata-intensive
// mongodb-like profile, and a streaming videoserver profile, all sharing
// one page cache and device.
package filebench

import (
	"fmt"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Profile names a workload personality.
type Profile string

// The profiles used in Figure 8b.
const (
	SeqRead     Profile = "seqread"
	RandRead    Profile = "randread"
	MongoDB     Profile = "mongodb"
	VideoServer Profile = "videoserver"
)

// Profiles lists the Figure 8b workload set.
func Profiles() []Profile { return []Profile{SeqRead, RandRead, MongoDB, VideoServer} }

// Config describes one multi-instance run.
type Config struct {
	Sys *crossprefetch.System
	// Profile selects the personality.
	Profile Profile
	// Instances is the number of concurrent workload instances
	// (paper: 16), each with its own file set.
	Instances int
	// ThreadsPerInstance is the worker count per instance.
	ThreadsPerInstance int
	// BytesPerInstance sizes each instance's dataset.
	BytesPerInstance int64
	// OpsPerThread bounds the measured loop.
	OpsPerThread int64
	// Seed fixes the random streams.
	Seed int64
}

// Result summarizes a run.
type Result struct {
	Profile   Profile
	Ops       int64
	Bytes     int64
	MBPerSec  float64
	OpsPerSec float64
	workload.Outcome
}

// Run provisions every instance's file set and executes the profile.
func Run(cfg Config) (Result, error) {
	if cfg.Instances <= 0 {
		cfg.Instances = 1
	}
	if cfg.ThreadsPerInstance <= 0 {
		cfg.ThreadsPerInstance = 2
	}
	setup := cfg.Sys.Timeline()
	layouts := make([]*layout, cfg.Instances)
	for i := 0; i < cfg.Instances; i++ {
		l, err := buildLayout(setup, cfg, i)
		if err != nil {
			return Result{}, err
		}
		// Each instance is its own process: a private CROSS-LIB runtime
		// (fd table, predictors, helpers, budget) over the shared kernel.
		l.proc = cfg.Sys.NewProcess()
		layouts[i] = l
	}

	d := workload.Drive(cfg.Sys.Group(), cfg.Seed)
	var threads []*workload.Thread
	for i := 0; i < cfg.Instances; i++ {
		threads = append(threads, d.Go(cfg.ThreadsPerInstance,
			func(th *workload.Thread, w int) error { return runThread(th, cfg, layouts[i], w) })...)
	}
	res := Result{Profile: cfg.Profile}
	var err error
	if res.Outcome, err = d.Wait(cfg.Sys); err != nil {
		return Result{}, err
	}
	res.Ops, res.Bytes = workload.Sum(threads)
	res.MBPerSec = simtime.Throughput(res.Bytes, res.Makespan)
	res.OpsPerSec = res.PerSec(float64(res.Ops))
	return res, nil
}

// layout is one instance's provisioned file set and process runtime.
type layout struct {
	instance int
	files    []string
	fileSize int64
	proc     *crosslib.Runtime
}

func buildLayout(tl *simtime.Timeline, cfg Config, instance int) (*layout, error) {
	l := &layout{instance: instance}
	var nFiles int
	switch cfg.Profile {
	case MongoDB:
		// Metadata-intensive: thousands of small files per instance.
		l.fileSize = 16 << 10
		nFiles = int(cfg.BytesPerInstance / l.fileSize)
		if nFiles < 16 {
			nFiles = 16
		}
	case VideoServer:
		// A handful of large "videos".
		l.fileSize = cfg.BytesPerInstance / 4
		nFiles = 4
	default:
		l.fileSize = cfg.BytesPerInstance / 8
		nFiles = 8
	}
	if l.fileSize <= 0 {
		return nil, fmt.Errorf("filebench: instance dataset too small")
	}
	for f := 0; f < nFiles; f++ {
		name := fmt.Sprintf("inst%02d/%s-%05d.dat", instance, cfg.Profile, f)
		if err := cfg.Sys.CreateSynthetic(tl, name, l.fileSize); err != nil {
			return nil, err
		}
		l.files = append(l.files, name)
	}
	return l, nil
}

func runThread(th *workload.Thread, cfg Config, l *layout, worker int) error {
	tl, rng := th.TL, th.Rng
	proc := l.proc
	n := cfg.OpsPerThread
	if n <= 0 {
		n = 256
	}
	switch cfg.Profile {
	case SeqRead:
		buf := make([]byte, 128<<10)
		name := l.files[worker%len(l.files)]
		f, err := proc.Open(tl, name)
		if err != nil {
			return err
		}
		defer f.Close(tl)
		off := int64(0)
		for i := int64(0); i < n; i++ {
			th.Gate()
			m, err := f.ReadAt(tl, buf, off)
			if err != nil {
				return err
			}
			off += int64(m)
			if off >= l.fileSize {
				off = 0
			}
			th.Ops++
			th.Bytes += int64(m)
		}

	case RandRead:
		buf := make([]byte, 8<<10)
		f, err := proc.Open(tl, l.files[rng.Intn(len(l.files))])
		if err != nil {
			return err
		}
		defer f.Close(tl)
		chunks := l.fileSize / int64(len(buf))
		for i := int64(0); i < n; i++ {
			th.Gate()
			off := rng.Int63n(chunks) * int64(len(buf))
			m, err := f.ReadAt(tl, buf, off)
			if err != nil {
				return err
			}
			th.Ops++
			th.Bytes += int64(m)
		}

	case MongoDB:
		// Document-store-ish: open a small file, read it, update it in
		// place, fsync every few updates, close it; occasionally create a
		// new file (journal/metadata pressure).
		buf := make([]byte, 16<<10)
		created := 0
		for i := int64(0); i < n; i++ {
			th.Gate()
			name := l.files[rng.Intn(len(l.files))]
			f, err := proc.Open(tl, name)
			if err != nil {
				return err
			}
			m, err := f.ReadAt(tl, buf, 0)
			if err != nil {
				return err
			}
			th.Bytes += int64(m)
			if _, err := f.WriteAt(tl, buf[:512], int64(rng.Intn(8))*512); err != nil {
				return err
			}
			th.Bytes += 512
			if i%4 == 3 {
				if err := f.Fsync(tl); err != nil {
					return err
				}
			}
			if err := f.Close(tl); err != nil {
				return err
			}
			if i%32 == 31 {
				created++
				nf, err := proc.Create(tl, fmt.Sprintf("inst%02d/new-%d-%d.dat", l.instance, worker, created))
				if err != nil {
					return err
				}
				if _, err := nf.WriteAt(tl, buf, 0); err != nil {
					return err
				}
				if err := nf.Fsync(tl); err != nil {
					return err
				}
				if err := nf.Close(tl); err != nil {
					return err
				}
			}
			th.Ops++
		}

	case VideoServer:
		// Most workers stream videos sequentially; worker 0 ingests new
		// content (the actively-written file of the videoserver fileset).
		if worker == 0 {
			buf := make([]byte, 1<<20)
			nf, err := proc.Create(tl, fmt.Sprintf("inst%02d/ingest.dat", l.instance))
			if err != nil {
				return err
			}
			defer nf.Close(tl)
			for i := int64(0); i < n; i++ {
				th.Gate()
				if _, err := nf.Append(tl, buf); err != nil {
					return err
				}
				th.Ops++
				th.Bytes += int64(len(buf))
			}
			return nil
		}
		buf := make([]byte, 256<<10)
		f, err := proc.Open(tl, l.files[rng.Intn(len(l.files))])
		if err != nil {
			return err
		}
		defer f.Close(tl)
		off := rng.Int63n(l.fileSize / 2)
		for i := int64(0); i < n; i++ {
			th.Gate()
			m, err := f.ReadAt(tl, buf, off)
			if err != nil {
				return err
			}
			off += int64(m)
			if off >= l.fileSize {
				off = 0
			}
			th.Ops++
			th.Bytes += int64(m)
		}

	default:
		return fmt.Errorf("filebench: unknown profile %q", cfg.Profile)
	}
	return nil
}
