//go:build !race

package harness

// raceEnabled reports a -race build.
const raceEnabled = false
