//go:build race

package alloc

// raceEnabled reports a race-enabled build. The allocation-count tests
// skip under it: the detector makes sync.Pool drop items at random, so
// the pooled hot path allocates.
const raceEnabled = true
