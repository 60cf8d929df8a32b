package crosslib

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/simtime"
	"repro/internal/vfs"
)

// TestRingClosedIsNotFull: a full ring answers ErrRingFull and recovers
// after a Reap; a closed one answers ErrRingClosed from both Preps, and no
// Reap clears that. Before the fix a closed ring said "full", and the
// retry-until-accepted idiom (ring_stress_test.go) would have spun on it
// forever.
func TestRingClosedIsNotFull(t *testing.T) {
	v := newKernel(1 << 20)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "f", 1<<20)
	f, err := rt.Open(tl, "f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	ring := rt.NewRing(0, 2)
	for i := 0; i < 2; i++ {
		if err := ring.PrepRead(f, buf, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ring.PrepRead(f, buf, 0, 2); !errors.Is(err, ErrRingFull) || errors.Is(err, ErrRingClosed) {
		t.Fatalf("Prep on a full ring: %v, want ErrRingFull", err)
	}
	ring.Submit(tl)
	if n := len(ring.Reap(tl, 2)); n != 2 {
		t.Fatalf("reaped %d of 2", n)
	}
	if err := ring.PrepRead(f, buf, 0, 3); err != nil {
		t.Fatalf("Prep after the Reap that made room: %v", err)
	}

	ring.Close()
	ring.Reap(tl, 0)
	for name, err := range map[string]error{
		"PrepRead":     ring.PrepRead(f, buf, 0, 4),
		"PrepPrefetch": ring.PrepPrefetch(f, 0, 4096, 4, tl.Now().Add(simtime.Second)),
	} {
		if !errors.Is(err, ErrRingClosed) || errors.Is(err, ErrRingFull) {
			t.Errorf("%s on a closed ring: %v, want ErrRingClosed", name, err)
		}
	}
	if st := ring.Stats(); st.Backpressure != 1 || st.Discarded != 1 {
		t.Errorf("stats %+v: want the one full-ring rejection as backpressure, the one staged op discarded", st)
	}
}

// ringBatches drives one ring through batches that complete every way a
// batch can — in the kernel and locally, with and without an error — and
// reports each CQE as Reap delivered it. With dirty set, every buffer the
// ring and Submit reuse is first filled, beyond its length, with another
// batch's leftovers.
func ringBatches(t *testing.T, dirty bool) string {
	v := newKernel(2048)
	rt := NewForApproach(v, CrossPredictOpt)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "f", 16<<20)
	f, err := rt.Open(tl, "f")
	if err != nil {
		t.Fatal(err)
	}
	ring := rt.NewRing(0, 16)
	// leftovers is a buffer of length 0 whose capacity holds 16 such entries.
	leftovers := func() []RingCQE {
		b := make([]RingCQE, 16)
		for i := range b {
			b[i] = RingCQE{User: 1 << 40, N: 1 << 40, Err: vfs.ErrShed, Done: 1 << 60}
		}
		return b[:0]
	}
	if dirty {
		fresh := submitPool.New
		defer func() { submitPool.New = fresh }()
		submitPool.New = func() any { return nil }
		for submitPool.Get() != nil {
		}
		submitPool.New = func() any { return &submitScratch{kernel: leftovers(), local: leftovers()} }
	}
	buf := make([]byte, 64<<10)
	var out string
	for round := int64(0); round < 4; round++ {
		if dirty { // between batches the CQ is empty: everything was reaped
			ring.mu.Lock()
			ring.cq, ring.lent = leftovers(), leftovers()
			ring.mu.Unlock()
		}
		prep := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		prep(ring.PrepRead(f, buf, round<<20, 1))
		prep(ring.PrepPrefetch(f, 8<<20, 64<<10, 2, tl.Now().Add(-1))) // expired: shed locally
		prep(ring.PrepPrefetch(f, (4+round)<<20, 256<<10, 3, 0))
		prep(ring.PrepPrefetch(f, 32<<20, 4096, 4, 0)) // past EOF: completes locally
		prep(ring.PrepRead(f, buf[:8192], 0, 6))
		ring.Submit(tl)
		for _, cq := range ring.Reap(tl, 5) {
			out += fmt.Sprintf("%d:%+v; ", round, cq)
		}
	}
	return out + fmt.Sprintf("%+v now=%d", ring.Stats(), tl.Now())
}

// TestRingBufferReuseAudit is the pooled-object audit for the library's half
// of the round trip: the CQ and the buffer Reap lends (swapped on every
// Reap), and the kernel and local completion storage of Submit's pooled
// scratch. A CQE delivered from reused storage must be exactly the one a
// fresh buffer would have held — no Err, Done or N of the entry that
// occupied the slot before.
func TestRingBufferReuseAudit(t *testing.T) {
	if want, got := ringBatches(t, false), ringBatches(t, true); want != got {
		t.Errorf("a reused completion buffer leaks into its next use\nfresh %s\ndirty %s", want, got)
	}
}
