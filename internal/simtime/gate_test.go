package simtime

import (
	"fmt"
	"testing"
	"time"
)

// TestGateOrder: members run one at a time, none before Wait, and the
// baton goes to the unfinished member with the smallest (gated time, id),
// including when a member returns. The turns are checked against the same
// rule played out by hand; ties (all four start at 0, members 0 and 1 move
// in step) go to the lower id.
func TestGateOrder(t *testing.T) {
	type turn struct {
		id int
		at Time
	}
	cost := []Duration{2 * Microsecond, 2 * Microsecond, 3 * Microsecond, Microsecond}
	ops := []int{5, 3, 4, 0} // member 3 returns at once and must pass the baton on

	g := NewGroup(0)
	var got []turn // unlocked: only the baton holder appends
	for range cost {
		g.Go(func(id int, tl *Timeline) {
			for i := 0; i < ops[id]; i++ {
				g.Gate(id, tl)
				got = append(got, turn{id, tl.Now()})
				tl.Advance(cost[id])
			}
		})
	}
	// There is no event to wait for when nothing may happen: give a member
	// that ran early the time to show it.
	time.Sleep(10 * time.Millisecond)
	if len(got) != 0 {
		t.Fatalf("%d turns ran before Wait", len(got))
	}
	g.Wait()

	var want []turn
	now, left := make([]Time, len(cost)), append([]int(nil), ops...)
	for {
		next := -1
		for i := range now {
			if left[i] > 0 && (next < 0 || now[i] < now[next]) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		want = append(want, turn{next, now[next]})
		now[next] = now[next].Add(cost[next])
		left[next]--
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("turns\n got %v\nwant %v", got, want)
	}
	if st := g.Stats(); st.Makespan != 12*Microsecond {
		t.Fatalf("makespan = %v, want 12µs", st.Makespan)
	}
}

func TestGateReleasesWhenMembersFinish(t *testing.T) {
	g := NewGroup(0)
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
