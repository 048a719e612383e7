package core

import (
	"testing"

	"difane/internal/flowspace"
	"difane/internal/topo"
)

func TestHopByHopDelaysMatchDistanceMode(t *testing.T) {
	run := func(hbh bool) *Network {
		g := topo.Linear(5, 0.001)
		policy := []flowspace.Rule{{
			ID: 1, Priority: 1, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4},
		}}
		n, err := NewNetwork(g, []uint32{2}, policy, NetworkConfig{HopByHop: hbh})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			n.InjectPacket(float64(i)*0.1, 0, flowKey(uint32(i), 80), 100, 0)
		}
		n.Run(10)
		return n
	}
	a, b := run(false), run(true)
	if a.M.Delivered != b.M.Delivered {
		t.Fatalf("delivered differ: %d vs %d", a.M.Delivered, b.M.Delivered)
	}
	if a.M.FirstPacketDelay.Mean() != b.M.FirstPacketDelay.Mean() {
		t.Fatalf("delays differ: %v vs %v",
			a.M.FirstPacketDelay.Mean(), b.M.FirstPacketDelay.Mean())
	}
}

func TestLinkLoadsCountTraversals(t *testing.T) {
	g := topo.Linear(4, 0.001) // 0-1-2-3
	policy := []flowspace.Rule{{
		ID: 1, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 3},
	}}
	n, err := NewNetwork(g, []uint32{1}, policy, NetworkConfig{
		HopByHop: true,
		Strategy: StrategyExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One flow from 0: ingress 0 → authority 1 → egress 3.
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.Run(1)
	if got := n.LinkLoads[LinkKey{0, 1}]; got != 1 {
		t.Fatalf("link 0→1 load = %d, want 1 (redirect leg)", got)
	}
	if got := n.LinkLoads[LinkKey{1, 2}]; got != 1 {
		t.Fatalf("link 1→2 load = %d, want 1 (tunnel leg)", got)
	}
	if got := n.LinkLoads[LinkKey{2, 3}]; got != 1 {
		t.Fatalf("link 2→3 load = %d, want 1 (tunnel leg)", got)
	}
	if got := n.LinkLoads[LinkKey{1, 0}]; got != 0 {
		t.Fatalf("reverse link must be unloaded, got %d", got)
	}
	// Second packet of the same flow: cache hit → direct 0→3, three links.
	n.InjectPacket(2, 0, flowKey(1, 80), 100, 1)
	n.Run(4)
	if got := n.LinkLoads[LinkKey{0, 1}]; got != 2 {
		t.Fatalf("link 0→1 after direct packet = %d, want 2", got)
	}
	if total := n.LinkLoads.Total(); total != 6 {
		t.Fatalf("total traversals = %d, want 6", total)
	}
}

func TestLinkLoadsStats(t *testing.T) {
	l := LinkLoads{}
	if l.Concentration() != 0 || l.Max() != 0 {
		t.Fatal("empty loads must report zeros")
	}
	l[LinkKey{0, 1}] = 9
	l[LinkKey{1, 2}] = 3
	if l.Max() != 9 || l.Total() != 12 {
		t.Fatalf("max=%d total=%d", l.Max(), l.Total())
	}
	// mean = 6, concentration = 1.5
	if c := l.Concentration(); c != 1.5 {
		t.Fatalf("concentration = %v", c)
	}
}

func TestLinkLoadsOffByDefault(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.Run(1)
	if len(n.LinkLoads) != 0 {
		t.Fatal("link loads must stay empty without HopByHop")
	}
}
