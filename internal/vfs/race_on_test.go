//go:build race

package vfs

// raceEnabled reports whether the race detector is active. Allocation
// guards skip under -race: its sync.Pool deliberately drops items to
// widen interleaving coverage, so pooled paths allocate there by design.
const raceEnabled = true
