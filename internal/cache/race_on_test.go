//go:build race

package cache

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Puts, so tests do not pin that a released cache is reused.
const raceEnabled = true
