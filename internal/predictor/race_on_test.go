//go:build race

package predictor

// raceEnabled reports whether the race detector is active. Allocation
// counts skip under -race: the detector's runtime allocates on its own
// account, so a count there measures it as well as the code under test.
const raceEnabled = true
