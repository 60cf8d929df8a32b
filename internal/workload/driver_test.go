package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/simtime"
)

// TestDrive pins the driver's contract over bodies that touch no file: how
// threads are seeded, which ids they get, which error fails a run, what Sum
// adds.
func TestDrive(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{})

	t.Run("seeds-ids-sum", func(t *testing.T) {
		d := Drive(sys.Group(), 42)
		draws := make([][3]int64, 4)
		body := func(base int) func(th *Thread, i int) error {
			return func(th *Thread, i int) error {
				for k := range draws[base+i] {
					th.Gate()
					draws[base+i][k] = th.Rng.Int63()
					th.TL.Advance(simtime.Microsecond)
				}
				th.Ops += int64(i + 1)
				th.Bytes += 100
				return nil
			}
		}
		first := d.Go(3, body(0))
		second := d.Go(1, body(3))
		out, err := d.Wait(sys)
		if err != nil {
			t.Fatal(err)
		}
		for i, th := range append(first, second...) {
			if th.ID != i {
				t.Errorf("thread %d has group id %d, want launch order", i, th.ID)
			}
			rng := rand.New(rand.NewSource(42 + 7919*int64(i)))
			for k, got := range draws[i] {
				if want := rng.Int63(); got != want {
					t.Errorf("thread %d draw %d = %d, want %d", i, k, got, want)
				}
			}
		}
		if ops, bytes := Sum(first); ops != 1+2+3 || bytes != 300 {
			t.Errorf("Sum(first) = %d ops, %d bytes", ops, bytes)
		}
		if ops, bytes := Sum(second); ops != 1 || bytes != 100 {
			t.Errorf("Sum(second) = %d ops, %d bytes", ops, bytes)
		}
		if out.Group.Threads != 4 || out.Makespan != 3*simtime.Microsecond {
			t.Errorf("outcome: %d threads, makespan %v", out.Group.Threads, out.Makespan)
		}
		if got := out.PerSec(6); got != 2e6 {
			t.Errorf("PerSec(6) over 3µs = %v", got)
		}
	})

	t.Run("first-error-in-launch-order", func(t *testing.T) {
		d := Drive(sys.Group(), 1)
		d.Go(4, func(th *Thread, i int) error {
			// Thread 3 fails first on the host clock and on the virtual one.
			th.TL.Advance(simtime.Duration(4-i) * simtime.Microsecond)
			th.Gate()
			if i == 1 || i == 3 {
				return fmt.Errorf("thread %d failed", i)
			}
			return nil
		})
		out, err := d.Wait(sys)
		if err == nil || err.Error() != "thread 1 failed" {
			t.Fatalf("Wait = %v, want thread 1's error", err)
		}
		if out.Makespan != 0 || out.Group.Threads != 0 {
			t.Errorf("a failed run reported an outcome: %+v", out.Group)
		}
	})
}

// TestRunFailsWhenReadsFail: a device that fails every read fails the run.
// Before the drivers shared one error policy, RunMicro's threads returned
// silently and RunMmap's skipped the load: both reported nil, 0 bytes and
// 0.0 MB/s.
func TestRunFailsWhenReadsFail(t *testing.T) {
	failing := func() *crossprefetch.System {
		sys := microSys(crossprefetch.OSOnly)
		sys.Device().SetFaultInjector(faultinject.New(faultinject.Plan{Seed: 1, ReadFailProb: 1}))
		return sys
	}
	_, err := RunMicro(MicroConfig{Sys: failing(), Threads: 2, TotalBytes: 4 << 20, Sequential: true, Seed: 1})
	if !errors.Is(err, blockdev.ErrInjected) {
		t.Errorf("RunMicro over a failing device returned %v, want the injected fault", err)
	}
	_, err = RunMmap(MmapConfig{Sys: failing(), Threads: 2, TotalBytes: 4 << 20, Sequential: true, Seed: 1})
	if !errors.Is(err, blockdev.ErrInjected) {
		t.Errorf("RunMmap over a failing device returned %v, want the injected fault", err)
	}
}
