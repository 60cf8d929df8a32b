package simtime

import (
	"sync/atomic"
	"testing"
)

func TestGateBoundsSkew(t *testing.T) {
	g := NewGroup(0)
	g.SetGateWindow(100 * Microsecond)

	var maxSkew atomic.Int64
	var fastNow, slowNow atomic.Int64

	// A fast thread (1µs ops) and a slow thread (50µs ops): without
	// gating the fast one would race arbitrarily far ahead. Neither starts
	// before both are members: a gate only holds a thread back for members
	// it knows, and on a loaded host the fast one used to get hundreds of
	// ops in before the second Go had run.
	start := make(chan struct{})
	g.Go(func(id int, tl *Timeline) {
		<-start
		for i := 0; i < 1000; i++ {
			g.Gate(id, tl)
			tl.Advance(1 * Microsecond)
			fastNow.Store(int64(tl.Now()))
			if skew := int64(tl.Now()) - slowNow.Load(); skew > maxSkew.Load() {
				maxSkew.Store(skew)
			}
		}
	})
	g.Go(func(id int, tl *Timeline) {
		<-start
		for i := 0; i < 40; i++ {
			g.Gate(id, tl)
			tl.Advance(50 * Microsecond)
			slowNow.Store(int64(tl.Now()))
		}
	})
	close(start)
	g.Wait()

	// The fast thread may lead by at most window + one slow op.
	limit := int64(100*Microsecond + 50*Microsecond)
	if got := maxSkew.Load(); got > limit {
		t.Fatalf("skew reached %v, want <= %v", Duration(got), Duration(limit))
	}
}

func TestGateReleasesWhenMembersFinish(t *testing.T) {
	g := NewGroup(0)
	g.SetGateWindow(10 * Microsecond)
	// One member finishes immediately at t=0; the other must not block
	// forever waiting for it.
	g.Go(func(id int, tl *Timeline) {})
	g.Go(func(id int, tl *Timeline) {
		for i := 0; i < 100; i++ {
			g.Gate(id, tl)
			tl.Advance(Millisecond)
		}
	})
	done := make(chan struct{})
	go func() { g.Wait(); close(done) }()
	<-done // deadlock here would hang the test (caught by -timeout)
	if st := g.Stats(); st.Makespan != 100*Millisecond {
		t.Fatalf("makespan = %v", st.Makespan)
	}
}

func TestGateSingleMemberNeverBlocks(t *testing.T) {
	g := NewGroup(0)
	g.Go(func(id int, tl *Timeline) {
		for i := 0; i < 10; i++ {
			g.Gate(id, tl)
			tl.Advance(Second)
		}
	})
	g.Wait()
	if st := g.Stats(); st.Makespan != 10*Second {
		t.Fatalf("makespan = %v", st.Makespan)
	}
}

func TestWorkerPoolEarliestFree(t *testing.T) {
	p := NewWorkerPool(2, 0)
	if got := p.EarliestFree(); got != 0 {
		t.Fatalf("idle pool EarliestFree = %v", got)
	}
	p.Run(0, func(tl *Timeline) { tl.Advance(100) })
	p.Run(0, func(tl *Timeline) { tl.Advance(300) })
	if got := p.EarliestFree(); got != 100 {
		t.Fatalf("EarliestFree = %v, want 100", got)
	}
}
