package filebench

import (
	"testing"

	crossprefetch "repro"
)

func run(t *testing.T, p Profile, a crossprefetch.Approach) Result {
	t.Helper()
	res, err := Run(Config{
		Sys: crossprefetch.NewSystem(crossprefetch.Config{
			MemoryBytes: 64 << 20, Approach: a,
		}),
		Profile: p, Instances: 2, ThreadsPerInstance: 2,
		BytesPerInstance: 16 << 20, OpsPerThread: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllProfilesRun(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			res := run(t, p, crossprefetch.OSOnly)
			if res.Ops == 0 || res.Bytes == 0 {
				t.Fatalf("empty result: %+v", res)
			}
			if res.MBPerSec <= 0 || res.Makespan <= 0 {
				t.Fatalf("no throughput: %+v", res)
			}
		})
	}
}

func TestMongoDBCreatesFiles(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: 64 << 20})
	before := sys.FS().FileCount()
	_, err := Run(Config{
		Sys: sys, Profile: MongoDB, Instances: 1, ThreadsPerInstance: 2,
		BytesPerInstance: 4 << 20, OpsPerThread: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The profile creates new files during the run beyond the layout.
	if sys.FS().FileCount() <= before+256 {
		t.Fatalf("mongodb profile created too few files: %d", sys.FS().FileCount())
	}
	if sys.FS().JournalStats().Acquires == 0 {
		t.Fatal("metadata profile should exercise the journal")
	}
}

func TestSeqReadFasterThanRandRead(t *testing.T) {
	seq := run(t, SeqRead, crossprefetch.OSOnly)
	rnd := run(t, RandRead, crossprefetch.OSOnly)
	if seq.MBPerSec <= rnd.MBPerSec {
		t.Fatalf("seqread (%.1f MB/s) should beat randread (%.1f MB/s)",
			seq.MBPerSec, rnd.MBPerSec)
	}
}

func TestSeqReadCrossBeatsBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	osr := run(t, SeqRead, crossprefetch.OSOnly)
	cross := run(t, SeqRead, crossprefetch.CrossPredictOpt)
	if cross.MBPerSec <= osr.MBPerSec {
		t.Fatalf("CrossPredictOpt (%.1f) should beat OSonly (%.1f)",
			cross.MBPerSec, osr.MBPerSec)
	}
}

func TestVideoServerWriterActive(t *testing.T) {
	res := run(t, VideoServer, crossprefetch.OSOnly)
	// The ingest worker's MB and the readers' MB both count.
	if res.Metrics.Writes == 0 {
		t.Fatal("videoserver should ingest new content")
	}
}

// TestRunClosesEveryFile: a profile closes every file it opens or
// creates, as filebench's own personalities do, so no descriptor outlives
// Run. The mongodb profile used to open a file per op and close none.
func TestRunClosesEveryFile(t *testing.T) {
	for _, p := range Profiles() {
		for _, a := range []crossprefetch.Approach{crossprefetch.OSOnly, crossprefetch.CrossPredictOpt} {
			sys := crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: 64 << 20, Approach: a})
			if _, err := Run(Config{
				Sys: sys, Profile: p, Instances: 2, ThreadsPerInstance: 2,
				BytesPerInstance: 4 << 20, OpsPerThread: 48, Seed: 1,
			}); err != nil {
				t.Fatal(err)
			}
			if n := sys.Kernel().OpenFiles(); n != 0 {
				t.Errorf("%s under %v: %d files left open after Run", p, a, n)
			}
		}
	}
}
