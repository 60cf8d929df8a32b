//go:build race

package lsm

// raceEnabled reports whether the race detector is active. Allocation
// budgets skip under -race: its sync.Pool deliberately drops items, so
// pooled paths allocate there by design.
const raceEnabled = true
