package topo

import (
	"math"
	"testing"
)

func TestLinearDistances(t *testing.T) {
	g := Linear(5, 1.0)
	d, ok := g.Dist(0, 4)
	if !ok || d != 4 {
		t.Fatalf("dist(0,4) = %v ok=%v", d, ok)
	}
	d, ok = g.Dist(2, 2)
	if !ok || d != 0 {
		t.Fatalf("dist(2,2) = %v ok=%v", d, ok)
	}
}

func TestPathEndpointsAndContinuity(t *testing.T) {
	g := Linear(6, 0.5)
	p := g.Path(1, 4)
	if len(p) != 4 || p[0] != 1 || p[3] != 4 {
		t.Fatalf("path = %v", p)
	}
	for i := 1; i < len(p); i++ {
		if p[i] != p[i-1]+1 {
			t.Fatalf("path not contiguous: %v", p)
		}
	}
}

func TestShortestPathPrefersLowLatency(t *testing.T) {
	g := NewGraph()
	g.AddLink(0, 1, 10) // direct but slow
	g.AddLink(0, 2, 1)  // detour...
	g.AddLink(2, 1, 1)  // ...is faster
	d, ok := g.Dist(0, 1)
	if !ok || d != 2 {
		t.Fatalf("dist = %v, want 2 via node 2", d)
	}
	p := g.Path(0, 1)
	if len(p) != 3 || p[1] != 2 {
		t.Fatalf("path = %v, want detour via 2", p)
	}
}

func TestNodeFailureDisconnects(t *testing.T) {
	g := Linear(3, 1) // 0-1-2
	g.SetNode(1, false)
	if _, ok := g.Dist(0, 2); ok {
		t.Fatal("path through failed node must vanish")
	}
	if g.NodeUp(1) {
		t.Fatal("node 1 must report down")
	}
	g.SetNode(1, true)
	if _, ok := g.Dist(0, 2); !ok {
		t.Fatal("path must return after recovery")
	}
}

func TestDistUnreachable(t *testing.T) {
	g := NewGraph()
	g.AddNode(0)
	g.AddNode(1)
	if _, ok := g.Dist(0, 1); ok {
		t.Fatal("disconnected nodes must be unreachable")
	}
	if g.Path(0, 1) != nil {
		t.Fatal("path between disconnected nodes must be nil")
	}
}

func TestStretch(t *testing.T) {
	g := Linear(5, 1) // 0-1-2-3-4
	// Direct 0→2 = 2; via 4 = 4 + 2 = 6; stretch 3.
	if s := g.Stretch(0, 4, 2); s != 3 {
		t.Fatalf("stretch = %v, want 3", s)
	}
	// Via a node on the path: stretch 1.
	if s := g.Stretch(0, 1, 2); s != 1 {
		t.Fatalf("stretch via on-path node = %v, want 1", s)
	}
	if s := g.Stretch(0, 1, 0); !math.IsInf(s, 1) {
		t.Fatal("stretch with zero direct distance must be +Inf")
	}
}

func TestCacheInvalidationOnMutation(t *testing.T) {
	g := Linear(3, 1)
	if d, _ := g.Dist(0, 2); d != 2 {
		t.Fatal("warm the cache")
	}
	g.AddLink(0, 2, 0.5)
	if d, _ := g.Dist(0, 2); d != 0.5 {
		t.Fatalf("cache must invalidate on AddLink, got %v", d)
	}
}

func TestFatTreeishConnectivity(t *testing.T) {
	g, edges := FatTreeish(2, 3, 4, 0.001, 0.0005)
	if len(edges) != 12 {
		t.Fatalf("edges = %d, want 12", len(edges))
	}
	if g.NumNodes() != 2+3+12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	for _, a := range edges {
		for _, b := range edges {
			if _, ok := g.Dist(a, b); !ok {
				t.Fatalf("edge %d cannot reach edge %d", a, b)
			}
		}
	}
}

func TestCampusConnectivityAndFailover(t *testing.T) {
	g, access := Campus(4, 2, 3, 0.001)
	if len(access) != 4*2*3 {
		t.Fatalf("access switches = %d", len(access))
	}
	a, b := access[0], access[len(access)-1]
	if _, ok := g.Dist(a, b); !ok {
		t.Fatal("campus must be connected")
	}
	// Killing one core must not partition the campus (dual homing).
	g.SetNode(0, false)
	if _, ok := g.Dist(a, b); !ok {
		t.Fatal("campus must survive a single core failure")
	}
}

func TestNodesSortedAndString(t *testing.T) {
	g := NewGraph()
	g.AddNode(5)
	g.AddNode(1)
	g.AddNode(3)
	ns := g.Nodes()
	if len(ns) != 3 || ns[0] != 1 || ns[2] != 5 {
		t.Fatalf("nodes = %v", ns)
	}
	if g.String() == "" {
		t.Fatal("String must render")
	}
}

func TestDeterministicPaths(t *testing.T) {
	// Two equal-cost paths: tie-break must be stable across calls.
	g := NewGraph()
	g.AddLink(0, 1, 1)
	g.AddLink(0, 2, 1)
	g.AddLink(1, 3, 1)
	g.AddLink(2, 3, 1)
	first := g.Path(0, 3)
	for i := 0; i < 10; i++ {
		g.generation++ // force cache rebuild
		p := g.Path(0, 3)
		if len(p) != len(first) || p[1] != first[1] {
			t.Fatalf("path changed across rebuilds: %v vs %v", p, first)
		}
	}
}
