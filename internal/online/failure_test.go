package online

import (
	"errors"
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/mec"
)

var errInjected = errors.New("injected allocation failure")

// failingAllocator succeeds for its first ok calls, then fails every call.
type failingAllocator struct {
	ok, calls int
}

func (f *failingAllocator) Name() string { return "failing" }

func (f *failingAllocator) Allocate(net *mec.Network) (alloc.Result, error) {
	f.calls++
	if f.calls > f.ok {
		return alloc.Result{}, errInjected
	}
	return alloc.NewGreedy().Allocate(net)
}

// TestRunReturnsAllocatorError pins the epoch-path error contract: an
// allocator failure mid-session stops the simulation and comes back from
// Run as an error wrapping the allocator's, instead of a panic.
func TestRunReturnsAllocatorError(t *testing.T) {
	fa := &failingAllocator{ok: 3}
	testHookAllocator = fa
	defer func() { testHookAllocator = nil }()

	cfg := fastConfig()
	cfg.Algorithm = "greedy"
	rep, err := Run(cfg)
	if !errors.Is(err, errInjected) {
		t.Fatalf("Run error = %v, want the injected allocation failure", err)
	}
	if rep.Epochs != 0 || rep.Arrivals != 0 {
		t.Errorf("failed Run returned a partial report: %+v", rep)
	}
	// The failing epoch was the last one: the simulation stopped there.
	if fa.calls != fa.ok+1 {
		t.Errorf("allocator called %d times, want %d (no epoch after the failure)", fa.calls, fa.ok+1)
	}
}
