//go:build !race

package simtime

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
