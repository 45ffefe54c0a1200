package mec

import (
	"strings"
	"testing"
)

// TestBookAdmitRelease checks that Admit and Release touch only the
// addressed (BS, service) cell and the BS's RRB residual, that Release
// undoes Admit exactly, and that Reset rewinds a used book in place.
func TestBookAdmitRelease(t *testing.T) {
	var k Book
	k.Reset(2, []int32{5, 6, 7, 8}, []int32{9, 10})
	k.Admit(1, 0, 3, 4)
	if cru, rrb := k.Residual(1, 0); cru != 4 || rrb != 6 {
		t.Fatalf("after Admit: (%d, %d), want (4, 6)", cru, rrb)
	}
	if got := k.Row(1); got[0] != 4 || got[1] != 8 {
		t.Fatalf("row 1 = %v, want [4 8]", got)
	}
	if cru, rrb := k.Residual(0, 0); cru != 5 || rrb != 9 {
		t.Fatalf("BS 0 touched by an admit at BS 1: (%d, %d)", cru, rrb)
	}
	k.Release(1, 0, 3, 4)
	if cru, rrb := k.Residual(1, 0); cru != 7 || rrb != 10 {
		t.Fatalf("after Release: (%d, %d), want (7, 10)", cru, rrb)
	}
	k.Admit(0, 1, 6, 9)
	k.Reset(1, []int32{2}, []int32{3})
	if k.Services != 1 || len(k.CRU) != 1 || len(k.RRB) != 1 {
		t.Fatalf("Reset to one BS left %+v", k)
	}
	if cru, rrb := k.Residual(0, 0); cru != 2 || rrb != 3 {
		t.Fatalf("after Reset: (%d, %d), want (2, 3)", cru, rrb)
	}
}

// TestBookCheckNonNegative drives the negative-residual check through
// its three verdicts: healthy (exactly drained included), negative CRUs,
// negative RRBs.
func TestBookCheckNonNegative(t *testing.T) {
	var k Book
	k.Reset(2, []int32{5, 0}, []int32{3})
	if err := k.CheckNonNegative(); err != nil {
		t.Fatalf("fresh book flagged invalid: %v", err)
	}
	k.Admit(0, 0, 5, 3)
	if err := k.CheckNonNegative(); err != nil {
		t.Fatalf("exactly-drained book flagged invalid: %v", err)
	}

	k.Reset(2, []int32{2, -1}, []int32{3})
	err := k.CheckNonNegative()
	if err == nil || !strings.Contains(err.Error(), "service 1") {
		t.Fatalf("negative CRU residual not flagged: %v", err)
	}

	k.Reset(1, []int32{2}, []int32{-4})
	err = k.CheckNonNegative()
	if err == nil || !strings.Contains(err.Error(), "RRBs") {
		t.Fatalf("negative RRB residual not flagged: %v", err)
	}
}
