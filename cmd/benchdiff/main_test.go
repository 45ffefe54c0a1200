package main

import "testing"

// TestLatestPairsPerGOMAXPROCS pins the pairing rule: each GOMAXPROCS
// value compares its own latest record with its own previous one, even
// when records at another GOMAXPROCS come after them in the history.
func TestLatestPairsPerGOMAXPROCS(t *testing.T) {
	rec := func(procs float64, id string) map[string]any {
		return map[string]any{"gomaxprocs": procs, "id": id}
	}
	history := []map[string]any{
		rec(1, "a"), rec(2, "b"), rec(1, "c"), rec(2, "d"), rec(2, "e"), rec(1, "f"), rec(4, "g"),
	}
	got := latestPairs(history)
	want := []struct{ procs, prev, cur string }{{"1", "c", "f"}, {"2", "d", "e"}}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.procs != w.procs || g.prev["id"] != w.prev || g.cur["id"] != w.cur {
			t.Fatalf("pair %d = gomaxprocs %s %v -> %v, want %s %s -> %s",
				i, g.procs, g.prev["id"], g.cur["id"], w.procs, w.prev, w.cur)
		}
	}
}
