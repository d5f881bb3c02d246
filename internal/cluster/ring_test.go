package cluster

import (
	"testing"
)

func mustRing(t *testing.T, ids []string, vnodes int) *Ring {
	t.Helper()
	nodes := make([]Node, len(ids))
	for i, id := range ids {
		nodes[i] = Node{ID: id}
	}
	r, err := NewRing(nodes, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]Node{{ID: ""}}, 0); err == nil {
		t.Fatal("empty node ID accepted")
	}
	if _, err := NewRing([]Node{{ID: "a"}, {ID: "a"}}, 0); err == nil {
		t.Fatal("duplicate node ID accepted")
	}
	if _, err := NewRing([]Node{{ID: "a"}}, -1); err == nil {
		t.Fatal("negative vnodes accepted")
	}
}

// TestRingOrderIndependence: every member must compute identical
// placement from any ordering of the same membership list.
func TestRingOrderIndependence(t *testing.T) {
	a := mustRing(t, []string{"n1", "n2", "n3"}, 64)
	b := mustRing(t, []string{"n3", "n1", "n2"}, 64)
	for u := uint64(1); u <= 5000; u++ {
		if a.Nodes()[a.NodeFor(u)].ID != b.Nodes()[b.NodeFor(u)].ID {
			t.Fatalf("user %d placed differently under reordered membership", u)
		}
	}
}

// TestRingStability pins the consistent-hashing contract: removing one
// node remaps only that node's users, and the survivors' keyspaces are
// untouched.
func TestRingStability(t *testing.T) {
	before := mustRing(t, []string{"n1", "n2", "n3", "n4"}, 64)
	after := mustRing(t, []string{"n1", "n2", "n4"}, 64) // n3 left

	const users = 20000
	moved := 0
	for u := uint64(1); u <= users; u++ {
		oldID := before.Nodes()[before.NodeFor(u)].ID
		newID := after.Nodes()[after.NodeFor(u)].ID
		if oldID == "n3" {
			moved++
			continue // must move somewhere; anywhere is correct
		}
		if oldID != newID {
			t.Fatalf("user %d moved %s->%s though its node stayed", u, oldID, newID)
		}
	}
	if moved == 0 {
		t.Fatal("no users were on the removed node: degenerate test")
	}
	// The departed node should have owned very roughly a quarter.
	if moved < users/10 || moved > users/2 {
		t.Fatalf("removed node owned %d/%d users: spread badly off uniform", moved, users)
	}
}

// TestRingSpread sanity-checks that virtual nodes keep per-node load
// within a broad band of uniform.
func TestRingSpread(t *testing.T) {
	r := mustRing(t, []string{"a", "b", "c", "d"}, 0) // default vnodes
	counts := make([]int, 4)
	const users = 40000
	for u := uint64(1); u <= users; u++ {
		counts[r.NodeFor(u)]++
	}
	for i, c := range counts {
		frac := float64(c) / users
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("node %d owns %.1f%% of users", i, 100*frac)
		}
	}
}

// TestRingOwnsMatchesNodeFor pins the predicate the engines filter with
// to the ring's placement (NodeFor) — disagreement between them silently
// drops records.
func TestRingOwnsMatchesNodeFor(t *testing.T) {
	r := mustRing(t, []string{"x", "y", "z"}, 16)
	for u := uint64(1); u <= 2000; u++ {
		owner := r.NodeFor(u)
		for n := 0; n < 3; n++ {
			if got := r.Owns(n)(u); got != (n == owner) {
				t.Fatalf("user %d: Owns(%d)=%v but NodeFor=%d", u, n, got, owner)
			}
		}
	}
}
