//go:build race

package sim

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Puts, so tests that pin recycling skip it.
const raceEnabled = true
