package engine

import "dmra/internal/mec"

// SetRunForTest positions the arena's run epoch, which Begin and every
// non-empty Settle advance, so a test can drive a session across the
// uint32 wrap.
func (inc *Incremental) SetRunForTest(run uint32) { inc.a.run = run }

// RunForTest returns the arena's current run epoch.
func (inc *Incremental) RunForTest() uint32 { return inc.a.run }

// RegionStampForTest returns the run UE u's candidate region was built
// in (0 once invalidated).
func (inc *Incremental) RegionStampForTest(u mec.UEID) uint32 { return inc.a.stamp[u] }
