//go:build race

package psi

// raceEnabled reports a -race build, whose instrumentation changes heap
// accounting.
const raceEnabled = true
