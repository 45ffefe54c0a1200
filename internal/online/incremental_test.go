package online

import "testing"

// TestIncrementalValidate pins the mode's configuration constraints.
func TestIncrementalValidate(t *testing.T) {
	c := fastConfig()
	c.Incremental = true
	if err := c.Validate(); err != nil {
		t.Fatalf("incremental dmra config rejected: %v", err)
	}
	bad := c
	bad.Algorithm = "greedy"
	if err := bad.Validate(); err == nil {
		t.Error("incremental mode accepted a non-dmra policy")
	}
	neg := c
	neg.DMRA.Rho = -1
	if err := neg.Validate(); err != nil {
		t.Errorf("incremental mode rejected rho < 0: %v", err)
	}
}
