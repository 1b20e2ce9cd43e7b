//go:build race

package app

// raceEnabled reports a -race build, in which sync.Pool drops items at
// random and allocation counts say nothing about steady state.
const raceEnabled = true
