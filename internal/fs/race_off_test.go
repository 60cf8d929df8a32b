//go:build !race

package fs

// raceEnabled reports whether the race detector is active. Allocation
// counts skip under -race, whose runtime allocates objects of its own on
// the paths they count.
const raceEnabled = false
