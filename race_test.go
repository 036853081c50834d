//go:build race

package dynlocal

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
