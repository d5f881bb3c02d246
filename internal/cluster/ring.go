// Package cluster scales sensd from one process to N: a consistent-hash
// ring places every user on exactly one node, each node's engine keeps
// only the users it owns, and a scatter-gather coordinator answers
// /v1/curves (and the slice reads behind /v1/alerts) by fetching per-node
// mergeable partials from GET /v1/partials, k-way merging them, and
// finishing the curve exactly once.
//
// # Placement
//
// The ring hashes each node ID to a set of virtual points; a user lands
// on the node owning the first point clockwise of the user's hash.
// Virtual points make ownership stable under membership change: adding or
// removing one node remaps only the keyspace adjacent to its own points
// (~1/N of users), never shuffles the rest — which is what keeps
// owned-range replay proportional to the change.
//
// # Staleness invariant under distribution
//
// Every version in the system understates: a node stamps a partial with
// its slice version BEFORE gathering the columns, and the coordinator
// caches a merged curve under the sum of those per-node stamps. A cached
// curve is served only while the sum of every node's known version still
// equals it; known versions are raised to the fetched stamps before the
// curve is cached and only rise, so the sums match only when every node's
// does, and the coordinator can never claim a curve reflects data it might
// not contain — the single-node cache invariant, preserved per node.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"autosens/internal/rng"
)

// Node is one cluster member: a stable identifier (hashing input, so
// renaming a node remaps its users) and the base URL its collector
// listens on (e.g. "http://10.0.0.3:8787").
type Node struct {
	ID  string
	URL string
}

// DefaultVirtualNodes is the default number of ring points per node —
// enough that ownership spread stays within a few percent of uniform at
// small cluster sizes.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash placement of users onto nodes. Immutable
// after construction; membership change builds a new ring.
type Ring struct {
	nodes  []Node
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int
}

// NewRing builds a ring over the given nodes with vnodes virtual points
// each (0 selects DefaultVirtualNodes). Node IDs must be unique and
// non-empty; node order does not affect placement (points are ordered by
// hash), so every member can build an identical ring from any ordering of
// the same membership list.
func NewRing(nodes []Node, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: empty ring")
	}
	if vnodes < 0 {
		return nil, fmt.Errorf("cluster: negative virtual node count %d", vnodes)
	}
	if vnodes == 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		nodes:  append([]Node(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*vnodes),
	}
	for i, n := range nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("cluster: node %d has empty ID", i)
		}
		if seen[n.ID] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		seen[n.ID] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n.ID, v), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// A full 64-bit hash collision across IDs is vanishingly rare but
		// must still break deterministically and identically on every
		// member: lowest node ID wins.
		return r.nodes[pa.node].ID < r.nodes[pb.node].ID
	})
	return r, nil
}

// pointHash hashes one (node ID, virtual index) pair onto the ring.
func pointHash(id string, v int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	_, _ = h.Write([]byte{'#', byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	return rng.Mix64(h.Sum64())
}

// Nodes returns the ring's membership in construction order. NodeFor
// indices point into this slice.
func (r *Ring) Nodes() []Node { return r.nodes }

// NodeFor returns the index of the node owning userID.
func (r *Ring) NodeFor(userID uint64) int {
	h := rng.Mix64(userID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the last point lands on the first
	}
	return r.points[i].node
}

// Owns returns the ownership predicate of one node, in the shape
// live.Config.Owns and store.Config.Owns take.
func (r *Ring) Owns(node int) func(userID uint64) bool {
	return func(userID uint64) bool { return r.NodeFor(userID) == node }
}
