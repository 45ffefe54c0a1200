//go:build race

package engine

// raceEnabled reports a race-enabled build. The allocation-count tests
// that must hold only in production builds skip under it: the detector
// instruments the code it checks and may allocate on its behalf.
const raceEnabled = true
