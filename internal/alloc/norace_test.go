//go:build !race

package alloc

// raceEnabled reports a race-enabled build; see race_test.go.
const raceEnabled = false
