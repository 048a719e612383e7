// Failover and mobility scenario: DIFANE's handling of network dynamics.
// An authority switch dies mid-run — traffic shifts to the pre-installed
// backup replica after the controller withdraws the dead rules. Then a
// host "moves" and the controller invalidates its cached rules so traffic
// immediately follows the new policy.
package main

import (
	"fmt"

	"difane"
)

func main() {
	// A ring of eight POPs: the data plane survives any single failure.
	g := difane.NewGraph()
	for i := 0; i < 8; i++ {
		g.AddLink(difane.NodeID(i), difane.NodeID((i+1)%8), 0.001)
	}
	policy := []difane.Rule{{
		ID: 1, Priority: 1, Match: difane.MatchAll(),
		Action: difane.Action{Kind: difane.ActForward, Arg: 0},
	}}

	net, err := difane.New(g, []uint32{1, 5}, policy, difane.Config{
		Strategy: difane.StrategyExact, // each flow is a visible miss
	})
	if err != nil {
		panic(err)
	}
	ctl := difane.NewController(net)
	ctl.FailoverDelay = 0.2 // detection + withdrawal

	// Steady new-flow arrivals from every non-authority switch.
	seq := uint64(0)
	for at := 0.0; at < 6.0; at += 0.005 {
		var k difane.Key
		k[difane.FIPSrc] = 1000 + seq
		ingress := uint32((seq % 4) * 2)
		net.InjectPacket(at, ingress, k, 100, 0)
		seq++
	}

	// Kill authority 1 at t=2. Ingresses whose nearest replica it was
	// lose their misses until the failover converges at t=2.2.
	net.Eng.At(2.0, func() {
		net.FailAuthority(1)
		convergeAt := ctl.OnTopologyChange()
		fmt.Printf("t=2.00s authority 1 failed; failover converges at t=%.2fs\n", convergeAt)
	})
	net.Run(8)

	fmt.Printf("delivered=%d lost-in-window=%d (bounded by failover delay)\n",
		net.M.Delivered, net.M.Drops.Unreachable)
	if net.M.Drops.Unreachable == 0 || net.M.Drops.Unreachable > 100 {
		panic("loss window out of expected range")
	}

	// --- Host mobility -------------------------------------------------
	// Cached rules for a host that moved are stale; the controller
	// invalidates them, forcing fresh misses that see current state.
	removed := ctl.InvalidateHost(1042)
	fmt.Printf("host 1042 moved: %d stale cache entries invalidated\n", removed)
	if removed == 0 {
		panic("the host's flows were cached and must have been invalidated")
	}
	after := ctl.InvalidateHost(1042)
	fmt.Printf("re-invalidation removes %d (idempotent)\n", after)
}
