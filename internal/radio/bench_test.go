package radio

import "testing"

func BenchmarkSINR(b *testing.B) {
	c := DefaultConfig()
	for i := 0; i < b.N; i++ {
		_ = c.SINR(float64(50 + i%400))
	}
}

func BenchmarkRRBsNeeded(b *testing.B) {
	c := DefaultConfig()
	for i := 0; i < b.N; i++ {
		_, _ = c.RRBsNeeded(float64(50+i%400), 4e6)
	}
}

func BenchmarkShadowDB(b *testing.B) {
	c := DefaultConfig()
	c.ShadowingStdDB = 8
	c.ShadowingSeed = 1
	for i := 0; i < b.N; i++ {
		_ = c.ShadowDB(i%1000, i%25)
	}
}

// BenchmarkLinkBudget times the whole per-link chain the scenario build
// runs for every candidate: SINR, Eq. 2 rate and Eq. 3 RRB count, under
// the dense city's 20 dB margin and a shadowing draw.
func BenchmarkLinkBudget(b *testing.B) {
	c := DefaultConfig()
	c.InterferenceMarginDB = 20
	k := c.LinkKernel()
	for i := 0; i < b.N; i++ {
		_, _, _ = k.Budget(float64(50+i%400), 4e6, float64(i%13)-6)
	}
}
