//go:build !race

package engine

// raceEnabled reports a race-enabled build; see race_test.go.
const raceEnabled = false
