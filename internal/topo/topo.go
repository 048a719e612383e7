// Package topo models the physical network DIFANE runs over: switches,
// hosts attached to edge switches, and weighted bidirectional links. It
// provides shortest-path routing (Dijkstra over link latency), path
// stretch computation, and node failure toggling — everything the
// evaluation's delay and stretch experiments need.
package topo

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a switch.
type NodeID uint32

// Link is one direction of a connection between two switches.
type Link struct {
	From, To NodeID
	// Latency is the one-way propagation delay in seconds.
	Latency float64
}

// Graph is a mutable switch-level topology.
type Graph struct {
	nodes map[NodeID]bool
	down  map[NodeID]bool
	adj   map[NodeID][]*Link

	// generation invalidates cached shortest-path state on mutation.
	generation uint64
	spCache    map[NodeID]*spTree
	cacheGen   uint64
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{
		nodes:   make(map[NodeID]bool),
		down:    make(map[NodeID]bool),
		adj:     make(map[NodeID][]*Link),
		spCache: make(map[NodeID]*spTree),
	}
}

// AddNode adds a switch (idempotent).
func (g *Graph) AddNode(id NodeID) {
	if !g.nodes[id] {
		g.nodes[id] = true
		g.generation++
	}
}

// AddLink adds a bidirectional link with the given one-way latency.
func (g *Graph) AddLink(a, b NodeID, latency float64) {
	g.AddNode(a)
	g.AddNode(b)
	g.adj[a] = append(g.adj[a], &Link{From: a, To: b, Latency: latency})
	g.adj[b] = append(g.adj[b], &Link{From: b, To: a, Latency: latency})
	g.generation++
}

// SetNode sets the up/down state of a switch; a down switch is excluded
// from all paths.
func (g *Graph) SetNode(id NodeID, up bool) {
	if up {
		delete(g.down, id)
	} else {
		g.down[id] = true
	}
	g.generation++
}

// NodeUp reports whether the switch exists and is up.
func (g *Graph) NodeUp(id NodeID) bool { return g.nodes[id] && !g.down[id] }

// Nodes returns all switch IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumNodes returns the switch count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// spTree is a single-source shortest-path tree.
type spTree struct {
	dist map[NodeID]float64
	prev map[NodeID]NodeID
}

type pqItem struct {
	node NodeID
	dist float64
}
type pq []pqItem

func (q pq) Len() int      { return len(q) }
func (q pq) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node // deterministic tie-break
}
func (q *pq) Push(x any) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func (g *Graph) tree(src NodeID) *spTree {
	if g.cacheGen != g.generation {
		g.spCache = make(map[NodeID]*spTree)
		g.cacheGen = g.generation
	}
	if t, ok := g.spCache[src]; ok {
		return t
	}
	t := &spTree{dist: make(map[NodeID]float64), prev: make(map[NodeID]NodeID)}
	if g.NodeUp(src) {
		t.dist[src] = 0
		q := &pq{{node: src}}
		done := make(map[NodeID]bool)
		for q.Len() > 0 {
			it := heap.Pop(q).(pqItem)
			if done[it.node] {
				continue
			}
			done[it.node] = true
			for _, l := range g.adj[it.node] {
				if g.down[l.To] {
					continue
				}
				nd := it.dist + l.Latency
				if d, ok := t.dist[l.To]; !ok || nd < d {
					t.dist[l.To] = nd
					t.prev[l.To] = it.node
					heap.Push(q, pqItem{node: l.To, dist: nd})
				}
			}
		}
	}
	g.spCache[src] = t
	return t
}

// Dist returns the shortest-path latency from a to b, and false if b is
// unreachable.
func (g *Graph) Dist(a, b NodeID) (float64, bool) {
	d, ok := g.tree(a).dist[b]
	return d, ok
}

// Path returns the shortest path from a to b inclusive, or nil if
// unreachable.
func (g *Graph) Path(a, b NodeID) []NodeID {
	t := g.tree(a)
	if _, ok := t.dist[b]; !ok {
		return nil
	}
	var rev []NodeID
	for at := b; ; {
		rev = append(rev, at)
		if at == a {
			break
		}
		at = t.prev[at]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Stretch returns the ratio of the detour path a→via→b over the direct
// shortest path a→b. A direct path of zero latency (a == b) or an
// unreachable leg returns +Inf.
func (g *Graph) Stretch(a, via, b NodeID) float64 {
	direct, ok1 := g.Dist(a, b)
	leg1, ok2 := g.Dist(a, via)
	leg2, ok3 := g.Dist(via, b)
	if !ok1 || !ok2 || !ok3 || direct == 0 {
		return math.Inf(1)
	}
	return (leg1 + leg2) / direct
}

func (g *Graph) String() string {
	return fmt.Sprintf("graph(%d nodes)", len(g.nodes))
}

// --- Generators -------------------------------------------------------------

// Linear builds a chain topology 0-1-2-...-(n-1) with uniform latency.
func Linear(n int, latency float64) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i))
	}
	for i := 0; i+1 < n; i++ {
		g.AddLink(NodeID(i), NodeID(i+1), latency)
	}
	return g
}

// FatTreeish builds a two-tier topology: cores fully meshed to aggregation
// switches, each aggregation switch serving edgePerAgg edge switches.
// Returns the graph and the list of edge switch IDs. IDs are assigned as
// cores [0,cores), aggs [cores, cores+aggs), edges above that.
func FatTreeish(cores, aggs, edgePerAgg int, coreLat, edgeLat float64) (*Graph, []NodeID) {
	g := NewGraph()
	var edges []NodeID
	next := NodeID(0)
	coreIDs := make([]NodeID, cores)
	for i := range coreIDs {
		coreIDs[i] = next
		g.AddNode(next)
		next++
	}
	for a := 0; a < aggs; a++ {
		agg := next
		g.AddNode(agg)
		next++
		for _, c := range coreIDs {
			g.AddLink(c, agg, coreLat)
		}
		for e := 0; e < edgePerAgg; e++ {
			edge := next
			g.AddNode(edge)
			next++
			g.AddLink(agg, edge, edgeLat)
			edges = append(edges, edge)
		}
	}
	return g, edges
}

// Campus builds a campus-like three-tier topology (core ring, distribution,
// access) and returns the graph plus the access-layer switch IDs.
func Campus(coreN, distPerCore, accessPerDist int, lat float64) (*Graph, []NodeID) {
	g := NewGraph()
	var access []NodeID
	next := NodeID(0)
	cores := make([]NodeID, coreN)
	for i := range cores {
		cores[i] = next
		g.AddNode(next)
		next++
	}
	if len(cores) > 1 {
		for i := range cores {
			g.AddLink(cores[i], cores[(i+1)%len(cores)], lat)
		}
	}
	for _, c := range cores {
		for d := 0; d < distPerCore; d++ {
			dist := next
			g.AddNode(dist)
			next++
			g.AddLink(c, dist, lat)
			// Dual-home distribution switches to the next core for failover.
			if len(cores) > 1 {
				g.AddLink(cores[(int(c)+1)%len(cores)], dist, lat*1.5)
			}
			for a := 0; a < accessPerDist; a++ {
				acc := next
				g.AddNode(acc)
				next++
				g.AddLink(dist, acc, lat)
				access = append(access, acc)
			}
		}
	}
	return g, access
}
