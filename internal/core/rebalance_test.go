package core

import (
	"testing"

	"difane/internal/flowspace"
	"difane/internal/topo"
)

// skewNet builds a network where nearest-replica redirection concentrates
// all miss traffic on one authority: a star with authorities 1 and 2,
// where every ingress is closer to 1.
func skewNet(t *testing.T) *Network {
	t.Helper()
	g := topo.NewGraph()
	// Hub 0; authority 1 adjacent to hub; authority 2 far away; ingresses
	// 3..6 adjacent to hub.
	g.AddLink(0, 1, 0.001)
	g.AddLink(1, 2, 0.010) // authority 2 is far
	for i := topo.NodeID(3); i <= 6; i++ {
		g.AddLink(0, i, 0.001)
	}
	// Two disjoint halves of flow space so there are 2 partitions.
	policy := []flowspace.Rule{
		{ID: 1, Priority: 1,
			Match:  flowspace.MatchAll().WithPrefix(flowspace.FIPSrc, 0, 1),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 0}},
		{ID: 2, Priority: 1,
			Match:  flowspace.MatchAll().WithPrefix(flowspace.FIPSrc, 1<<31, 1),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 0}},
	}
	n, err := NewNetwork(g, []uint32{1, 2}, policy, NetworkConfig{
		Strategy:  StrategyExact,
		Partition: PartitionConfig{MaxRulesPerPartition: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func injectSpread(n *Network, from, count int, start float64) {
	for i := 0; i < count; i++ {
		var k flowspace.Key
		k[flowspace.FIPSrc] = uint64(i) << 20 // spreads across both halves
		if i%2 == 1 {
			k[flowspace.FIPSrc] |= 1 << 31
		}
		k[flowspace.FTPSrc] = uint64(from) // distinct keys per wave
		n.InjectPacket(start+float64(i)*0.001, uint32(3+i%4), k, 100, 0)
	}
}

// authorityHits reads each switch's cumulative count of the redirects its
// authority table answered.
func authorityHits(n *Network) map[uint32]uint64 {
	out := make(map[uint32]uint64, len(n.Switches))
	for id, sw := range n.Switches {
		out[id] = sw.Stats.AuthorityHits.Load()
	}
	return out
}

// The controller reads a partition's load from the hit counters of its
// authority-table entries: every miss of the wave, whichever partition.
func TestMeasurePartitionLoad(t *testing.T) {
	n := skewNet(t)
	c := NewController(n)
	injectSpread(n, 1, 40, 0)
	n.Run(5)
	loads := c.partitionLoad()
	var total uint64
	for _, l := range loads {
		total += l
	}
	if len(loads) != 2 || total != 40 {
		t.Fatalf("measured load = %v (total %d), want 40 over 2 partitions", loads, total)
	}
}

func TestRebalanceByLoadSpreadsMissTraffic(t *testing.T) {
	n := skewNet(t)
	c := NewController(n)

	// Wave 1: everything lands on authority 1 (nearest replica for all
	// ingresses).
	injectSpread(n, 1, 40, 0)
	n.Run(5)
	before := authorityHits(n)
	if before[1] != 40 || before[2] != 0 {
		t.Fatalf("expected full concentration on authority 1, got %v", before)
	}

	c.RebalanceByLoad()

	// Wave 2 (fresh keys): load must now split across both authorities.
	injectSpread(n, 2, 40, 6)
	n.Run(12)
	after := authorityHits(n)
	d1, d2 := after[1]-before[1], after[2]-before[2]
	if d1 == 0 || d2 == 0 {
		t.Fatalf("post-rebalance wave must hit both authorities: +%d/+%d", d1, d2)
	}
	if n.M.Drops.Hole != 0 || n.M.Drops.Unreachable != 0 {
		t.Fatalf("rebalancing must not lose traffic: %+v", n.M.Drops)
	}
	if n.M.Delivered != 80 {
		t.Fatalf("delivered = %d, want 80", n.M.Delivered)
	}
}

func TestRebalancePreservesSemantics(t *testing.T) {
	n := skewNet(t)
	c := NewController(n)
	injectSpread(n, 1, 20, 0)
	n.Run(3)
	c.RebalanceByLoad()
	// Re-inject the SAME keys: cached entries survive the rebalance and
	// still forward correctly.
	injectSpread(n, 1, 20, 4)
	n.Run(8)
	if n.M.Delivered != 40 {
		t.Fatalf("delivered = %d, want 40 (drops %+v)", n.M.Delivered, n.M.Drops)
	}
	// The second wave must be cache hits (exact rules persist).
	if n.M.Redirects != 20 {
		t.Fatalf("redirects = %d, want 20 (second wave cached)", n.M.Redirects)
	}
}

func TestRebalanceSkipsFailedAuthorities(t *testing.T) {
	n := skewNet(t)
	c := NewController(n)
	injectSpread(n, 1, 10, 0)
	n.Run(2)
	n.FailAuthority(2)
	c.RebalanceByLoad()
	for i := range n.Assignment().Partitions {
		for _, h := range n.Assignment().ReplicasFor(i) {
			if h == 2 {
				t.Fatal("rebalance must not place partitions on a failed authority")
			}
		}
	}
}
