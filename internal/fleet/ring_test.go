package fleet

import (
	"fmt"
	"testing"
)

func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

// TestRingDeterministic proves ownership is a pure function of (nodes, key)
// regardless of construction order — the property that lets every node and
// the lb agree without coordination.
func TestRingDeterministic(t *testing.T) {
	nodes := ringNodes(5)
	a := NewRing(nodes)
	b := NewRing([]string{nodes[3], nodes[1], nodes[4], nodes[0], nodes[2]})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("construction order changed ownership of %q", key)
		}
	}
}

// TestRingBalance sanity-checks the rendezvous distribution: over many keys
// every node owns a non-trivial share.
func TestRingBalance(t *testing.T) {
	r := NewRing(ringNodes(4))
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for node, c := range counts {
		if c < keys/4/2 || c > keys/4*2 {
			t.Fatalf("node %s owns %d of %d keys — distribution is badly skewed: %v", node, c, keys, counts)
		}
	}
}

// TestRingMinimalDisruption proves the rendezvous property the warm caches
// rely on: removing one node only reassigns the keys that node owned.
func TestRingMinimalDisruption(t *testing.T) {
	nodes := ringNodes(5)
	full := NewRing(nodes)
	without := NewRing(nodes[:4]) // drop the last node
	moved, kept := 0, 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := full.Owner(key), without.Owner(key)
		if before == nodes[4] {
			continue // its keys must move somewhere
		}
		if before == after {
			kept++
		} else {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved between surviving nodes (kept %d) — rendezvous should move none", moved, kept)
	}
}

// TestRingOwnersLadder proves Owners starts with Owner and covers every
// node exactly once.
func TestRingOwnersLadder(t *testing.T) {
	r := NewRing(ringNodes(4))
	key := SessionRouteKey("sess-42")
	ladder := r.Owners(key)
	if len(ladder) != 4 {
		t.Fatalf("ladder has %d entries, want 4", len(ladder))
	}
	if ladder[0] != r.Owner(key) {
		t.Fatalf("ladder head %s != owner %s", ladder[0], r.Owner(key))
	}
	seen := map[string]bool{}
	for _, n := range ladder {
		if seen[n] {
			t.Fatalf("node %s appears twice in the ladder", n)
		}
		seen[n] = true
	}
	// The failover property: removing the owner promotes ladder[1].
	rest := NewRing(ladder[1:])
	if rest.Owner(key) != ladder[1] {
		t.Fatalf("after owner loss, %s owns the key, want ladder[1]=%s", rest.Owner(key), ladder[1])
	}
}

// TestRingEmptyAndDuplicates covers the degenerate inputs.
func TestRingEmptyAndDuplicates(t *testing.T) {
	if NewRing(nil).Owner("k") != "" {
		t.Fatal("empty ring returned an owner")
	}
	r := NewRing([]string{"http://a", "http://a", "", "http://b"})
	if r.Len() != 2 {
		t.Fatalf("duplicates/empties not dropped: %v", r.Nodes())
	}
}
