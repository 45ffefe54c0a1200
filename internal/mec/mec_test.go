package mec

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dmra/internal/geo"
	"dmra/internal/radio"
)

// testPricing mirrors the §VI/DESIGN.md parameterization (power law).
func testPricing() Pricing {
	return Pricing{BasePrice: 1, CrossSPFactor: 2, DistanceSigma: 0.01}
}

func testSPs(n int) []SP {
	sps := make([]SP, n)
	for i := range sps {
		sps[i] = SP{ID: SPID(i), Name: "sp", CRUPrice: 8, OtherCostPerCRU: 1}
	}
	return sps
}

// twoBSNetwork builds a 2-SP, 2-BS, 2-service network with UEs placed by
// the caller. BS 0 belongs to SP 0 at (0,0); BS 1 to SP 1 at (400,0).
func twoBSNetwork(t *testing.T, ues []UE) *Network {
	t.Helper()
	bss := []BS{
		{ID: 0, SP: 0, Pos: geo.Point{X: 0, Y: 0}, CRUCapacity: []int{100, 100}, MaxRRBs: 55},
		{ID: 1, SP: 1, Pos: geo.Point{X: 400, Y: 0}, CRUCapacity: []int{100, 0}, MaxRRBs: 55},
	}
	net, err := NewNetwork(testSPs(2), bss, ues, 2, radio.DefaultConfig(), testPricing())
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return net
}

func TestBSHosts(t *testing.T) {
	bs := BS{CRUCapacity: []int{10, 0, 3}}
	tests := []struct {
		j    ServiceID
		want bool
	}{
		{0, true},
		{1, false},
		{2, true},
		{3, false}, // out of range
	}
	for _, tt := range tests {
		if got := bs.Hosts(tt.j); got != tt.want {
			t.Errorf("Hosts(%d) = %v, want %v", tt.j, got, tt.want)
		}
	}
}

func TestPricingValidate(t *testing.T) {
	if err := testPricing().Validate(); err != nil {
		t.Fatalf("valid pricing rejected: %v", err)
	}
	if err := (Pricing{BasePrice: 1, CrossSPFactor: 2, DistanceSigma: 0.01, Law: DistancePower}).Validate(); err != nil {
		t.Fatalf("valid power-law pricing rejected: %v", err)
	}
	bad := []Pricing{
		{BasePrice: 0, CrossSPFactor: 2, DistanceSigma: 0.01},
		{BasePrice: 1, CrossSPFactor: 1, DistanceSigma: 0.01},
		{BasePrice: 1, CrossSPFactor: 2, DistanceSigma: -1},
		{BasePrice: 1, CrossSPFactor: 2, DistanceSigma: 0.01, Law: "cubic"},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: invalid pricing accepted", i)
		}
	}
}

func TestPricePerCRU(t *testing.T) {
	ues := []UE{{ID: 0, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6}}
	net := twoBSNetwork(t, ues)
	d := 100.0
	wantSame := 1 + math.Pow(d, 0.01) // b + d^sigma*b, power law
	wantCross := 2 + math.Pow(d, 0.01)
	if got := net.PricePerCRU(true, d); math.Abs(got-wantSame) > 1e-12 {
		t.Errorf("same-SP price = %v, want %v", got, wantSame)
	}
	if got := net.PricePerCRU(false, d); math.Abs(got-wantCross) > 1e-12 {
		t.Errorf("cross-SP price = %v, want %v", got, wantCross)
	}
	if net.PricePerCRU(false, d) <= net.PricePerCRU(true, d) {
		t.Error("cross-SP price must exceed same-SP price")
	}
}

func TestPriceLinearLaw(t *testing.T) {
	ues := []UE{{ID: 0, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6}}
	bss := []BS{
		{ID: 0, SP: 0, Pos: geo.Point{X: 0, Y: 0}, CRUCapacity: []int{100, 100}, MaxRRBs: 55},
		{ID: 1, SP: 1, Pos: geo.Point{X: 400, Y: 0}, CRUCapacity: []int{100, 0}, MaxRRBs: 55},
	}
	pr := Pricing{BasePrice: 1, CrossSPFactor: 2, DistanceSigma: 0.01, Law: DistanceLinear}
	net, err := NewNetwork(testSPs(2), bss, ues, 2, radio.DefaultConfig(), pr)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 0.01*100
	if got := net.PricePerCRU(true, 100); math.Abs(got-want) > 1e-12 {
		t.Errorf("linear-law price = %v, want %v", got, want)
	}
}

func TestPriceIncreasesWithDistance(t *testing.T) {
	ues := []UE{{ID: 0, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6}}
	net := twoBSNetwork(t, ues)
	if net.PricePerCRU(true, 400) <= net.PricePerCRU(true, 10) {
		t.Error("price must increase with distance")
	}
}

func TestLinkBuilding(t *testing.T) {
	ues := []UE{
		// UE 0 at (100,0): within 450 m of both BSs; requests service 0
		// hosted by both.
		{ID: 0, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		// UE 1 requests service 1 hosted only by BS 0.
		{ID: 1, SP: 1, Pos: geo.Point{X: 100, Y: 0}, Service: 1, CRUDemand: 4, RateBps: 2e6},
		// UE 2 is far away from both BSs (outside 450 m).
		{ID: 2, SP: 0, Pos: geo.Point{X: 2000, Y: 2000}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := twoBSNetwork(t, ues)

	if got := net.CoverCount(0); got != 2 {
		t.Errorf("f_0 = %d, want 2", got)
	}
	if got := net.CoverCount(1); got != 1 {
		t.Errorf("f_1 = %d, want 1 (service 1 only on BS 0)", got)
	}
	if got := net.CoverCount(2); got != 0 {
		t.Errorf("f_2 = %d, want 0 (out of range)", got)
	}
	if got := net.Dense().Links(); got != 3 {
		t.Errorf("total links = %d, want 3", got)
	}

	l, ok := net.Link(0, 1)
	if !ok {
		t.Fatal("link (0,1) missing")
	}
	if l.SameSP {
		t.Error("UE 0 (SP 0) and BS 1 (SP 1) flagged same-SP")
	}
	if math.Abs(l.DistanceM-300) > 1e-9 {
		t.Errorf("distance = %v, want 300", l.DistanceM)
	}
	if l.RRBs <= 0 {
		t.Errorf("RRBs = %d, want positive", l.RRBs)
	}
	if _, ok := net.Link(2, 0); ok {
		t.Error("out-of-range UE has a link")
	}
}

func TestLinkRRBsMatchRadioModel(t *testing.T) {
	ues := []UE{{ID: 0, SP: 0, Pos: geo.Point{X: 250, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 5e6}}
	net := twoBSNetwork(t, ues)
	l, ok := net.Link(0, 0)
	if !ok {
		t.Fatal("link missing")
	}
	want, err := net.Radio.RRBsNeeded(250, 5e6)
	if err != nil {
		t.Fatal(err)
	}
	if l.RRBs != want {
		t.Errorf("link RRBs = %d, radio model says %d", l.RRBs, want)
	}
	if sinr := net.Radio.SINR(250); math.Abs(l.SINR-sinr) > 1e-12 {
		t.Errorf("link SINR = %v, radio model says %v", l.SINR, sinr)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	goodUE := UE{ID: 0, SP: 0, Pos: geo.Point{X: 10, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6}
	goodBS := BS{ID: 0, SP: 0, CRUCapacity: []int{100, 100}, MaxRRBs: 55}
	tests := []struct {
		name    string
		sps     []SP
		bss     []BS
		ues     []UE
		svcs    int
		wantSub string
	}{
		{"no SPs", nil, []BS{goodBS}, []UE{goodUE}, 2, "no SPs"},
		{"no services", testSPs(1), []BS{goodBS}, []UE{goodUE}, 0, "services"},
		{"SP id mismatch", []SP{{ID: 3, CRUPrice: 6, OtherCostPerCRU: 1}}, []BS{goodBS}, []UE{goodUE}, 2, "has ID"},
		{"BS bad SP ref", testSPs(1), []BS{{ID: 0, SP: 5, CRUCapacity: []int{1, 1}, MaxRRBs: 5}}, []UE{goodUE}, 2, "unknown SP"},
		{"BS capacity len", testSPs(1), []BS{{ID: 0, SP: 0, CRUCapacity: []int{1}, MaxRRBs: 5}}, []UE{goodUE}, 2, "capacity entries"},
		{"BS negative capacity", testSPs(1), []BS{{ID: 0, SP: 0, CRUCapacity: []int{1, -1}, MaxRRBs: 5}}, []UE{goodUE}, 2, "negative capacity"},
		{"BS zero RRBs", testSPs(1), []BS{{ID: 0, SP: 0, CRUCapacity: []int{1, 1}, MaxRRBs: 0}}, []UE{goodUE}, 2, "RRB budget"},
		{"UE bad SP ref", testSPs(1), []BS{goodBS}, []UE{{ID: 0, SP: 9, Service: 0, CRUDemand: 4, RateBps: 2e6}}, 2, "unknown SP"},
		{"UE bad service", testSPs(1), []BS{goodBS}, []UE{{ID: 0, SP: 0, Service: 7, CRUDemand: 4, RateBps: 2e6}}, 2, "unknown service"},
		{"UE zero demand", testSPs(1), []BS{goodBS}, []UE{{ID: 0, SP: 0, Service: 0, CRUDemand: 0, RateBps: 2e6}}, 2, "CRU demand"},
		{"UE zero rate", testSPs(1), []BS{goodBS}, []UE{{ID: 0, SP: 0, Service: 0, CRUDemand: 4}}, 2, "rate"},
		// The store's capacity and demand rows are int32: larger values
		// would wrap there.
		{"BS capacity past int32", testSPs(1), []BS{{ID: 0, SP: 0, CRUCapacity: []int{1, math.MaxInt32 + 1}, MaxRRBs: 5}}, []UE{goodUE}, 2, "capacity 2147483648 above"},
		{"BS RRBs past int32", testSPs(1), []BS{{ID: 0, SP: 0, CRUCapacity: []int{1, 1}, MaxRRBs: math.MaxInt32 + 1}}, []UE{goodUE}, 2, "RRB budget 2147483648"},
		{"UE demand past int32", testSPs(1), []BS{goodBS}, []UE{{ID: 0, SP: 0, Service: 0, CRUDemand: math.MaxInt32 + 1, RateBps: 2e6}}, 2, "CRU demand 2147483648"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewNetwork(tt.sps, tt.bss, tt.ues, tt.svcs, radio.DefaultConfig(), testPricing())
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestEq16Enforced(t *testing.T) {
	// CRUPrice 3 <= cross price (~3.05) + other cost 1 -> must be rejected.
	sps := []SP{
		{ID: 0, CRUPrice: 3, OtherCostPerCRU: 1},
		{ID: 1, CRUPrice: 6, OtherCostPerCRU: 1},
	}
	bss := []BS{
		{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{100}, MaxRRBs: 55},
		{ID: 1, SP: 1, Pos: geo.Point{X: 200}, CRUCapacity: []int{100}, MaxRRBs: 55},
	}
	ues := []UE{{ID: 0, SP: 0, Pos: geo.Point{X: 100}, Service: 0, CRUDemand: 4, RateBps: 2e6}}
	_, err := NewNetwork(sps, bss, ues, 1, radio.DefaultConfig(), testPricing())
	if err == nil || !strings.Contains(err.Error(), "Eq. 16") {
		t.Fatalf("Eq. 16 violation not caught: %v", err)
	}
}

func TestStateAssignUnassign(t *testing.T) {
	ues := []UE{{ID: 0, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6}}
	net := twoBSNetwork(t, ues)
	s := NewState(net)

	if s.Assigned(0) {
		t.Fatal("fresh state has UE assigned")
	}
	if !s.CanServe(0, 0) {
		t.Fatal("BS 0 should be able to serve UE 0")
	}
	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	l, _ := net.Link(0, 0)
	if cru, rrb := s.Book().Residual(0, 0); cru != 100-4 || rrb != 55-l.RRBs {
		t.Errorf("residual = (%d, %d), want (96, %d)", cru, rrb, 55-l.RRBs)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("invariants after assign: %v", err)
	}

	if err := s.Assign(0, 1); !errors.Is(err, ErrAlreadyAssigned) {
		t.Errorf("double assign: err = %v, want ErrAlreadyAssigned", err)
	}

	s.Unassign(0)
	if s.Assigned(0) {
		t.Error("UE still assigned after Unassign")
	}
	if cru, rrb := s.Book().Residual(0, 0); cru != 100 || rrb != 55 {
		t.Errorf("residual not restored: (%d, %d)", cru, rrb)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("invariants after unassign: %v", err)
	}
	s.Unassign(0) // idempotent
	if got, _ := s.Book().Residual(0, 0); got != 100 {
		t.Errorf("double Unassign corrupted ledger: %d", got)
	}
}

func TestStateAssignErrors(t *testing.T) {
	ues := []UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 60, RateBps: 2e6},
		{ID: 1, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 60, RateBps: 2e6},
		{ID: 2, SP: 0, Pos: geo.Point{X: 2000, Y: 2000}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := twoBSNetwork(t, ues)
	s := NewState(net)

	if err := s.Assign(2, 0); !errors.Is(err, ErrNotCandidate) {
		t.Errorf("out-of-range assign: err = %v, want ErrNotCandidate", err)
	}
	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	// 60 + 60 > 100 CRUs: second must fail.
	if err := s.Assign(1, 0); !errors.Is(err, ErrNoCRU) {
		t.Errorf("over-capacity assign: err = %v, want ErrNoCRU", err)
	}
	if s.Assigned(1) {
		t.Error("failed assign left UE assigned")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("invariants after failed assign: %v", err)
	}
}

func TestStateRRBExhaustion(t *testing.T) {
	// Each UE at 400 m from BS 0 needs ~2 RRBs; pack UEs until the 55-RRB
	// radio budget runs out while CRUs are still plentiful (CRU demand 1).
	var ues []UE
	for i := 0; i < 40; i++ {
		ues = append(ues, UE{ID: UEID(i), SP: 0, Pos: geo.Point{X: 0, Y: 400}, Service: 0, CRUDemand: 1, RateBps: 6e6})
	}
	net := twoBSNetwork(t, ues)
	s := NewState(net)
	assigned := 0
	var lastErr error
	for i := range ues {
		if err := s.Assign(UEID(i), 0); err != nil {
			lastErr = err
			break
		}
		assigned++
	}
	if lastErr == nil {
		t.Fatal("radio never exhausted")
	}
	if !errors.Is(lastErr, ErrNoRRB) {
		t.Fatalf("err = %v, want ErrNoRRB", lastErr)
	}
	if assigned == 0 {
		t.Fatal("no UE assigned at all")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestValidateAssignment has one row per kind of violation the recount
// must catch, plus a valid assignment with cloud UEs.
func TestValidateAssignment(t *testing.T) {
	ues := []UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		{ID: 1, SP: 1, Pos: geo.Point{X: 300, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		// Covered by no BS.
		{ID: 2, SP: 0, Pos: geo.Point{X: 2000, Y: 2000}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		// 60 + 60 CRUs exceed BS 0's 100.
		{ID: 3, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 60, RateBps: 2e6},
		{ID: 4, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 60, RateBps: 2e6},
	}
	// ~2 RRBs each at 400 m: 40 of them exceed BS 0's 55 RRBs while
	// using 40 of its CRUs.
	radioHungry := make([]UEID, 40)
	for i := range radioHungry {
		radioHungry[i] = UEID(len(ues))
		ues = append(ues, UE{ID: UEID(len(ues)), SP: 0, Pos: geo.Point{X: 0, Y: 400}, Service: 0, CRUDemand: 1, RateBps: 6e6})
	}
	net := twoBSNetwork(t, ues)
	assignment := func(serve map[UEID]BSID) Assignment {
		a := NewAssignment(len(ues))
		for u, b := range serve {
			a.ServingBS[u] = b
		}
		return a
	}
	allOnBS0 := map[UEID]BSID{}
	for _, u := range radioHungry {
		allOnBS0[u] = 0
	}
	tests := []struct {
		name    string
		a       Assignment
		wantErr error  // nil: valid
		wantSub string // a substring of the error
	}{
		{"valid with cloud UEs", assignment(map[UEID]BSID{0: 0, 1: 1, 3: 0}), nil, ""},
		{"Eq. 12", assignment(map[UEID]BSID{3: 0, 4: 0}), ErrNoCRU, "Eq. 12"},
		{"Eq. 13", assignment(map[UEID]BSID{2: 0}), ErrNotCandidate, "Eq. 13"},
		{"Eq. 14", assignment(allOnBS0), ErrNoRRB, "Eq. 14"},
		{"ID past the BSs", assignment(map[UEID]BSID{0: 7}), ErrNotCandidate, "Eq. 13"},
		{"negative ID", assignment(map[UEID]BSID{0: -2}), ErrNotCandidate, "Eq. 13"},
		{"candidate + 2^32", assignment(map[UEID]BSID{0: 1 << 32}), ErrNotCandidate, "Eq. 13"},
		{"wrong length", Assignment{ServingBS: []BSID{0}}, nil, "covers 1 UEs"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := ValidateAssignment(net, tt.a)
			if tt.wantSub == "" {
				if err != nil {
					t.Fatalf("valid assignment rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %v, want one mentioning %q", err, tt.wantSub)
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Fatalf("error %v, want %v", err, tt.wantErr)
			}
		})
	}
}

// TestFindCandRejectsOutOfRangeBS: an ID outside [0, BSs) is no
// candidate, even one that truncates to a candidate's ID in int32.
func TestFindCandRejectsOutOfRangeBS(t *testing.T) {
	net := randomScenario(t, 5, 60, 8, false)
	c := net.Dense()
	links := 0
	for u := range net.UEs {
		lo, hi := c.CandRange(UEID(u))
		for k := lo; k < hi; k++ {
			b := BSID(c.BS[k])
			if got := c.FindCand(UEID(u), b); got != k {
				t.Fatalf("UE %d BS %d: FindCand = %d, want %d", u, b, got, k)
			}
			for _, alias := range []BSID{b + 1<<32, b - 1<<32} {
				if got := c.FindCand(UEID(u), alias); got != -1 {
					t.Fatalf("UE %d: FindCand(%d) = %d, want -1", u, alias, got)
				}
				if _, ok := net.Link(UEID(u), alias); ok {
					t.Fatalf("UE %d: Link(%d) found a link", u, alias)
				}
			}
			links++
		}
		for _, b := range []BSID{CloudBS, -2, BSID(len(net.BSs))} {
			if got := c.FindCand(UEID(u), b); got != -1 {
				t.Fatalf("UE %d: FindCand(%d) = %d, want -1", u, b, got)
			}
		}
	}
	if links == 0 {
		t.Fatal("scenario has no candidate links")
	}
}

func TestAssignmentCounts(t *testing.T) {
	a := NewAssignment(3)
	if a.ServedCount() != 0 || a.CloudCount() != 3 {
		t.Fatalf("fresh assignment: served=%d cloud=%d", a.ServedCount(), a.CloudCount())
	}
	a.ServingBS[1] = 4
	if a.ServedCount() != 1 || a.CloudCount() != 2 {
		t.Fatalf("after one assign: served=%d cloud=%d", a.ServedCount(), a.CloudCount())
	}
	c := a.Clone()
	c.ServingBS[0] = 2
	if a.ServingBS[0] != CloudBS {
		t.Error("Clone shares backing storage")
	}
}

func TestProfitIdentity(t *testing.T) {
	ues := []UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		{ID: 1, SP: 1, Pos: geo.Point{X: 300, Y: 0}, Service: 0, CRUDemand: 5, RateBps: 3e6},
		{ID: 2, SP: 0, Pos: geo.Point{X: 2000, Y: 2000}, Service: 0, CRUDemand: 3, RateBps: 4e6},
	}
	net := twoBSNetwork(t, ues)
	a := NewAssignment(3)
	a.ServingBS[0] = 0 // same SP
	a.ServingBS[1] = 0 // cross SP
	// UE 2 stays on the cloud.

	r := Profit(net, a)

	// Identity W_k = W_k^r - W_k^B - W_k^S, summed equals per-UE margins.
	var want float64
	for _, u := range []UEID{0, 1} {
		ue := &net.UEs[u]
		l, _ := net.Link(u, a.ServingBS[u])
		sp := &net.SPs[ue.SP]
		want += float64(ue.CRUDemand) * (sp.CRUPrice - sp.OtherCostPerCRU - l.PricePerCRU)
	}
	if got := r.TotalProfit(); math.Abs(got-want) > 1e-9 {
		t.Errorf("total profit = %v, want %v", got, want)
	}

	// Decomposition is consistent per SP.
	for _, p := range r.PerSP {
		if math.Abs(p.Profit()-(p.Revenue-p.BSPayment-p.OtherCost)) > 1e-12 {
			t.Errorf("SP %d: Profit() inconsistent with decomposition", p.SP)
		}
	}

	if r.ServedUEs() != 2 || r.CloudUEs() != 1 {
		t.Errorf("served=%d cloud=%d, want 2/1", r.ServedUEs(), r.CloudUEs())
	}
	if math.Abs(r.ForwardedTrafficBps-4e6) > 1e-9 {
		t.Errorf("forwarded traffic = %v, want 4e6", r.ForwardedTrafficBps)
	}
	if r.ForwardedCRUs != 3 {
		t.Errorf("forwarded CRUs = %d, want 3", r.ForwardedCRUs)
	}
	if r.PerSP[0].OwnBSUEs != 1 {
		t.Errorf("SP 0 own-BS UEs = %d, want 1", r.PerSP[0].OwnBSUEs)
	}
	if r.PerSP[1].OwnBSUEs != 0 {
		t.Errorf("SP 1 own-BS UEs = %d, want 0", r.PerSP[1].OwnBSUEs)
	}
}

func TestProfitSameSPCheaperThanCross(t *testing.T) {
	// A UE equidistant from an own-SP BS and a foreign BS earns its SP
	// strictly more on the own BS (the §IV premise).
	ues := []UE{{ID: 0, SP: 0, Pos: geo.Point{X: 200, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6}}
	net := twoBSNetwork(t, ues) // BS0 at x=0 (SP0), BS1 at x=400 (SP1): both 200 m away

	own := NewAssignment(1)
	own.ServingBS[0] = 0
	cross := NewAssignment(1)
	cross.ServingBS[0] = 1

	if po, pc := Profit(net, own).TotalProfit(), Profit(net, cross).TotalProfit(); po <= pc {
		t.Errorf("own-BS profit %v <= cross-BS profit %v", po, pc)
	}
}

func TestProfitEmptyAssignmentZero(t *testing.T) {
	ues := []UE{{ID: 0, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6}}
	net := twoBSNetwork(t, ues)
	r := Profit(net, NewAssignment(1))
	if r.TotalProfit() != 0 {
		t.Errorf("all-cloud profit = %v, want 0", r.TotalProfit())
	}
}

func TestSummarize(t *testing.T) {
	ues := []UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 100, Y: 0}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		{ID: 1, SP: 1, Pos: geo.Point{X: 300, Y: 0}, Service: 0, CRUDemand: 3, RateBps: 3e6},
		{ID: 2, SP: 0, Pos: geo.Point{X: 2000, Y: 2000}, Service: 0, CRUDemand: 5, RateBps: 4e6},
	}
	net := twoBSNetwork(t, ues)
	s := net.Summarize()
	if s.SPs != 2 || s.BSs != 2 || s.UEs != 3 || s.Services != 2 {
		t.Fatalf("entity counts wrong: %+v", s)
	}
	if s.Uncovered != 1 {
		t.Errorf("uncovered = %d, want 1 (the far UE)", s.Uncovered)
	}
	if s.CandidateLinks != net.Dense().Links() {
		t.Errorf("links = %d vs %d", s.CandidateLinks, net.Dense().Links())
	}
	if s.TotalRRBs != 110 {
		t.Errorf("total RRBs = %d, want 110", s.TotalRRBs)
	}
	if s.TotalCRUs != 300 {
		t.Errorf("total CRUs = %d, want 300 (100+100+100)", s.TotalCRUs)
	}
	if s.DemandCRUs != 7 {
		t.Errorf("demand CRUs = %d, want 4+3 (covered UEs only)", s.DemandCRUs)
	}
	if s.RadioLoadFactor() <= 0 || s.RadioLoadFactor() > 1 {
		t.Errorf("radio load = %v", s.RadioLoadFactor())
	}
	hist := 0
	for _, c := range s.CoverageHistogram {
		hist += c
	}
	if hist != 3 {
		t.Errorf("histogram covers %d UEs, want 3", hist)
	}
	str := s.String()
	for _, want := range []string{"2 SPs", "candidate links", "radio load"} {
		if !strings.Contains(str, want) {
			t.Errorf("summary string missing %q:\n%s", want, str)
		}
	}
}

func TestSummarizeEmptyNetwork(t *testing.T) {
	net := twoBSNetwork(t, nil)
	s := net.Summarize()
	if s.UEs != 0 || s.MeanCoverage != 0 || s.RadioLoadFactor() != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}
