// Package simtime provides the virtual-time substrate for the CrossPrefetch
// simulator.
//
// Every simulated thread owns a Timeline, a monotonically advancing virtual
// clock measured in nanoseconds. Shared hardware and software resources
// (device channels, page-cache tree locks, bitmap locks, range-tree node
// locks) are modeled as ledgers: interval schedulers that admit an
// operation at the earliest time at or after its arrival when it overlaps
// no conflicting booked span, so one that arrives "early" in virtual time
// backfills an idle gap rather than queueing behind later bookings
// (ledger.go). The gap between a thread's arrival and its admission is
// accounted as wait time, which is how lock-contention percentages (paper
// Table 1) are produced.
//
// The model is intentionally coarse: it captures serialization, bandwidth
// occupancy, and latency — the three effects the CrossPrefetch paper's
// evaluation hinges on — without simulating instruction-level detail.
package simtime

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats a duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// String formats a time as a duration offset from the simulation start.
func (t Time) String() string { return Duration(t).String() }

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Throughput converts bytes moved over a virtual span into MB/s.
func Throughput(bytes int64, elapsed Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / elapsed.Seconds()
}
