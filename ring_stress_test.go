// Real-concurrency stress for the submission/completion rings: many
// goroutines submit batches against ONE shared ring while a dedicated
// reaper drains it, under -race via `make check`. Every SQE must produce
// exactly one byte-correct CQE, and after the storm the cross-layer
// telemetry audit must still reconcile exactly — including the ring
// ledger (SQEs == CQEs, dispatch batches vs plug commands).
package crossprefetch_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/simtime"
)

// ringPattern is the file content at off (mirrors what the test writes).
func ringPattern(b []byte, off int64) {
	for i := range b {
		b[i] = byte((off + int64(i)) * 131)
	}
}

// TestRingSharedRaceStress: 8 submitter goroutines share one ring over
// one file — each stages read batches (plus periodic prefetch intents)
// and submits, spinning on ring-full backpressure; one reaper goroutine
// consumes completions concurrently and verifies every read's bytes
// against the known file content. The grab-all dispatch means any
// submitter may drain and complete chunks another submitter staged, so
// this exercises the cross-tenant completion path under the race
// detector.
func TestRingSharedRaceStress(t *testing.T) {
	const (
		block       = 4096
		filePages   = 2048
		submitters  = 8
		iters       = 60
		batchReads  = 4
		readBytes   = 2 * block
		prefetchTag = uint64(1) << 63
	)
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: filePages * block * 4,
		BlockSize:   block,
		Telemetry:   true,
		Trace:       true,
		Approach:    crossprefetch.CrossPredictOpt,
	})
	tl0 := sys.Timeline()
	f0, err := sys.Create(tl0, "shared")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, filePages*block)
	ringPattern(data, 0)
	if _, err := f0.WriteAt(tl0, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f0.Fsync(tl0); err != nil {
		t.Fatal(err)
	}
	sys.DropAllCaches(tl0)

	ring := sys.Lib().NewRing(0, 256)
	const totalReads = submitters * iters * batchReads
	const totalPrefetch = submitters * ((iters + 7) / 8)
	offs := make([]int64, totalReads)
	bufs := make([][]byte, totalReads)

	var wg sync.WaitGroup
	for id := 0; id < submitters; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := simtime.NewTimeline(0)
			f, err := sys.Open(tl, "shared")
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close(tl)
			for i := 0; i < iters; i++ {
				for j := 0; j < batchReads; j++ {
					u := uint64(id*iters*batchReads + i*batchReads + j)
					off := int64((id*2011+i*batchReads+j)*7919%(filePages-2)) * block
					offs[u] = off
					bufs[u] = make([]byte, readBytes)
					for ring.PrepRead(f, bufs[u], off, u) != nil {
						runtime.Gosched() // ring full: wait for the reaper
					}
				}
				if i%8 == 0 {
					u := prefetchTag | uint64(id*iters+i)
					off := int64((id*523+i)*101%(filePages-32)) * block
					for ring.PrepPrefetch(f, off, 32*block, u, 0) != nil {
						runtime.Gosched()
					}
				}
				ring.Submit(tl)
			}
		}()
	}

	reaped := make(map[uint64]bool, totalReads+totalPrefetch)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tlR := simtime.NewTimeline(0)
		want := make([]byte, readBytes)
		for len(reaped) < totalReads+totalPrefetch {
			for _, cq := range ring.Reap(tlR, 1) {
				if reaped[cq.User] {
					t.Errorf("user %#x completed twice", cq.User)
					continue
				}
				reaped[cq.User] = true
				if cq.Err != nil {
					t.Errorf("user %#x failed: %v", cq.User, cq.Err)
					continue
				}
				if cq.User&prefetchTag != 0 {
					continue
				}
				if cq.N != readBytes {
					t.Errorf("user %#x read %d bytes, want %d", cq.User, cq.N, readBytes)
					continue
				}
				ringPattern(want, offs[cq.User])
				if !bytes.Equal(bufs[cq.User], want) {
					t.Errorf("user %#x data mismatch at off %d", cq.User, offs[cq.User])
				}
			}
		}
	}()

	wg.Wait()
	<-done
	ring.Close()

	if len(reaped) != totalReads+totalPrefetch {
		t.Fatalf("reaped %d completions, want %d", len(reaped), totalReads+totalPrefetch)
	}
	st := ring.Stats()
	if st.SQEs != totalReads+totalPrefetch {
		t.Fatalf("ring accepted %d SQEs, want %d", st.SQEs, totalReads+totalPrefetch)
	}
	if st.Submits == 0 {
		t.Fatal("no kernel crossings recorded")
	}
	if ks := sys.Kernel().RingStats(); ks.Staged != 0 {
		t.Fatalf("%d chunks still staged at quiescence", ks.Staged)
	}
	// The whole storm must reconcile exactly across every layer.
	if err := sys.AuditTelemetry(); err != nil {
		t.Fatalf("telemetry audit after ring stress: %v", err)
	}
}

// TestRingReapLendsUntilNextReap holds Reap's contract under the race
// detector: the slice it returns is the ring's own buffer, lent until the
// next Reap on that ring, so while two submitters keep parking completions
// into the ring's other buffer the reaper must find every CQE it was handed
// unchanged — right up to the moment it reaps again. A Submit that appended
// into the lent buffer would be a write racing the reaper's unlocked reads.
func TestRingReapLendsUntilNextReap(t *testing.T) {
	const (
		block      = 4096
		filePages  = 1024
		submitters = 2
		iters      = 150
		batch      = 3
		total      = submitters * iters * batch
	)
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: filePages * block / 4, // a quarter resident: hits and misses mix
		BlockSize:   block,
		Approach:    crossprefetch.CrossPredictOpt,
	})
	if err := sys.CreateSynthetic(sys.Timeline(), "lent", filePages*block); err != nil {
		t.Fatal(err)
	}
	ring := sys.Lib().NewRing(0, 32)

	var wg sync.WaitGroup
	for id := 0; id < submitters; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := simtime.NewTimeline(0)
			f, err := sys.Open(tl, "lent")
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close(tl)
			for i := 0; i < iters; i++ {
				for j := 0; j < batch; j++ {
					u := uint64((id*iters+i)*batch + j)
					off := int64(u*7919%(filePages-2)) * block
					// A buffer per op: whichever Submit takes the op fills it.
					buf := make([]byte, 2*block)
					for ring.PrepRead(f, buf, off, u) != nil {
						runtime.Gosched() // ring full: wait for the reaper
					}
				}
				ring.Submit(tl)
			}
		}()
	}

	seen := make([]bool, total)
	tl := simtime.NewTimeline(0)
	var held []crosslib.RingCQE
	for reaped := 0; reaped < total; {
		cqes := ring.Reap(tl, 1)
		held = append(held[:0], cqes...)
		// Let the submitters run while the loan is out.
		for i := 0; i < 4; i++ {
			runtime.Gosched()
		}
		for i, cq := range cqes {
			if cq != held[i] {
				t.Fatalf("CQE %d changed while lent: got %+v, was handed %+v", i, cq, held[i])
			}
			if cq.Err != nil || cq.N != 2*block {
				t.Fatalf("user %d completed as %+v", cq.User, cq)
			}
			if cq.User >= total || seen[cq.User] {
				t.Fatalf("user %d delivered twice, or never submitted", cq.User)
			}
			seen[cq.User] = true
		}
		reaped += len(cqes)
	}
	wg.Wait()
	ring.Close()
	if st := ring.Stats(); st.SQEs != total || st.Discarded != 0 {
		t.Fatalf("ring accepted %d SQEs and discarded %d, want %d and 0", st.SQEs, st.Discarded, total)
	}
}
