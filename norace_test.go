//go:build !race

package driftclean

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = false
