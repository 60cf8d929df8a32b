// Package faultinject provides deterministic, seeded failure injection
// for the simulated block device. A Plan describes which requests fail
// (per-op probability, offset-range targeting) and how they fail
// (transient vs persistent); an Injector compiled from a plan implements
// blockdev.FaultInjector.
//
// Determinism is the point: every decision is a pure hash of
// (seed, op, offset) rather than a draw from a shared sequential RNG,
// so the fault pattern a workload sees is independent of goroutine
// interleaving and identical across runs — the property the
// retry/backoff determinism tests rely on. The only stateful element is
// the per-site attempt count that lets transient faults clear after a
// bounded number of retries, which is keyed by the request site and so
// is also schedule-independent for the sequential retry loops that
// consume it.
package faultinject

import (
	"fmt"
	"sync"

	"repro/internal/blockdev"
)

// Class classifies an injected fault.
type Class int

const (
	// Transient faults may succeed on retry: the same request site
	// clears after Plan.TransientRepeats failed attempts.
	Transient Class = iota
	// Persistent faults never clear; every retry fails again.
	Persistent
)

// String names the class.
func (c Class) String() string {
	if c == Persistent {
		return "persistent"
	}
	return "transient"
}

// Error is the injected failure handed to the device's caller. It
// unwraps to blockdev.ErrInjected and carries the transient-vs-
// persistent classification that retry policies branch on (via
// blockdev.IsTransient).
type Error struct {
	Op    blockdev.Op
	Off   int64
	Bytes int64
	Class Class
}

// Error formats the fault.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: %s %s fault at [%d,%d)",
		e.Class, e.Op, e.Off, e.Off+e.Bytes)
}

// Transient reports whether a retry may succeed (see blockdev.IsTransient).
func (e *Error) Transient() bool { return e.Class == Transient }

// Unwrap ties the fault into the blockdev error taxonomy, so
// errors.Is(err, blockdev.ErrInjected) holds for every injected fault.
func (e *Error) Unwrap() error { return blockdev.ErrInjected }

// RangeFault targets all requests overlapping one byte range of the
// device — the model for a bad region of media.
type RangeFault struct {
	// Lo and Hi bound the faulty byte range [Lo, Hi).
	Lo, Hi int64
	// Class is the fault classification for hits in this range.
	Class Class
	// Reads and Writes select which directions fault. Both false means
	// the range is inert (kept so plans can toggle directions).
	Reads, Writes bool
	// Repeats overrides Plan.TransientRepeats for transient hits in this
	// range (<= 0 inherits the plan-wide value) — a brownout that takes
	// longer to clear than the background glitch rate.
	Repeats int
}

// Plan is a declarative, seed-reproducible fault schedule.
type Plan struct {
	// Seed keys every hash decision. Two injectors built from equal
	// plans inject identical fault patterns.
	Seed uint64

	// ReadFailProb and WriteFailProb fail a matching request with the
	// given probability (per request site, in [0, 1]).
	ReadFailProb  float64
	WriteFailProb float64

	// TransientFrac is the fraction of probability-injected faults
	// classified transient (the rest are persistent). Range faults carry
	// their own class.
	TransientFrac float64

	// TransientRepeats is how many attempts a transient site fails
	// before clearing; <= 0 selects 2.
	TransientRepeats int

	// Ranges lists offset-targeted faults, checked before the
	// probability draw.
	Ranges []RangeFault
}

// Validate rejects malformed plans.
func (p Plan) Validate() error {
	inUnit := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faultinject: %s %v outside [0,1]", name, v)
		}
		return nil
	}
	if err := inUnit("ReadFailProb", p.ReadFailProb); err != nil {
		return err
	}
	if err := inUnit("WriteFailProb", p.WriteFailProb); err != nil {
		return err
	}
	if err := inUnit("TransientFrac", p.TransientFrac); err != nil {
		return err
	}
	for i, r := range p.Ranges {
		if r.Lo < 0 || r.Hi <= r.Lo {
			return fmt.Errorf("faultinject: range %d [%d,%d) is empty or negative", i, r.Lo, r.Hi)
		}
	}
	return nil
}

// Stats counts what an injector actually did.
type Stats struct {
	Faults     int64 // requests failed
	Transient  int64 // ... of which transient
	Persistent int64 // ... of which persistent
	Cleared    int64 // transient sites that cleared after retries
}

// Injector is a compiled Plan; it implements blockdev.FaultInjector.
type Injector struct {
	plan    Plan
	repeats int

	mu       sync.Mutex
	attempts map[site]int
	stats    Stats
}

type site struct {
	op  blockdev.Op
	off int64
}

// New compiles a plan. Invalid plans panic — they are construction-time
// programming errors, not runtime conditions.
func New(p Plan) *Injector {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	rep := p.TransientRepeats
	if rep <= 0 {
		rep = 2
	}
	return &Injector{plan: p, repeats: rep, attempts: make(map[site]int)}
}

// Stats snapshots the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Inject decides the fate of one request (blockdev.FaultInjector).
func (in *Injector) Inject(op blockdev.Op, off, bytes int64) error {
	class, repeats, fault := in.verdict(op, off, bytes)
	if !fault {
		return nil
	}

	in.mu.Lock()
	if class == Transient {
		s := site{op, off}
		n := in.attempts[s]
		in.attempts[s] = n + 1
		if n >= repeats {
			// The site has burned through its transient budget: it now
			// succeeds, modeling a glitch that went away.
			if n == repeats {
				in.stats.Cleared++
			}
			in.mu.Unlock()
			return nil
		}
		in.stats.Transient++
	} else {
		in.stats.Persistent++
	}
	in.stats.Faults++
	in.mu.Unlock()

	return &Error{Op: op, Off: off, Bytes: bytes, Class: class}
}

// verdict decides whether a request of bytes at (op, off) faults, with
// which class, and with which transient-repeat budget, before the
// attempt-count filter.
func (in *Injector) verdict(op blockdev.Op, off, bytes int64) (Class, int, bool) {
	// A range fails every request that overlaps it, one that starts
	// below it included (a merged readahead command). The per-site
	// attempt key stays the request's start offset: chunked consumers
	// re-issue at the faulted offset, so it is stable across retries.
	end := off + max(bytes, 1)
	for _, r := range in.plan.Ranges {
		if off < r.Hi && end > r.Lo {
			if (op == blockdev.OpRead && r.Reads) || (op == blockdev.OpWrite && r.Writes) {
				rep := r.Repeats
				if rep <= 0 {
					rep = in.repeats
				}
				return r.Class, rep, true
			}
		}
	}
	prob := in.plan.ReadFailProb
	if op == blockdev.OpWrite {
		prob = in.plan.WriteFailProb
	}
	if prob > 0 && unit(in.hash(op, off, saltFail)) < prob {
		class := Persistent
		if unit(in.hash(op, off, saltClass)) < in.plan.TransientFrac {
			class = Transient
		}
		return class, in.repeats, true
	}
	return 0, 0, false
}

// Hash salts keep the two independent decisions (fail? class?)
// uncorrelated for the same request site.
const (
	saltFail  = 0x9e3779b97f4a7c15
	saltClass = 0xbf58476d1ce4e5b9
)

// hash mixes the plan seed with a request site and a decision salt.
func (in *Injector) hash(op blockdev.Op, off int64, salt uint64) uint64 {
	return Hash(in.plan.Seed, uint64(op)+1, uint64(off), salt)
}

// Hash is a splitmix64-based mixer over an arbitrary key sequence. It
// is exported so other layers (crosslib's retry jitter) can derive
// deterministic pseudo-randomness from the same primitive without a
// shared RNG.
func Hash(vals ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vals {
		h ^= splitmix64(v + h)
		h = splitmix64(h)
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
