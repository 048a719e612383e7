package core

import (
	"math/rand"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/topo"
)

// testNet builds a linear topology 0-1-2-3-4 with the authority at node 2,
// and a tiny policy forwarding port 80 to egress 4 and dropping the rest.
func testNet(t *testing.T, cfg NetworkConfig) *Network {
	t.Helper()
	g := topo.Linear(5, 0.001) // 1ms per hop
	policy := []flowspace.Rule{
		{ID: 1, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}},
		{ID: 2, Priority: 0, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActDrop}},
	}
	n, err := NewNetwork(g, []uint32{2}, policy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func flowKey(src uint32, port uint64) flowspace.Key {
	var k flowspace.Key
	k[flowspace.FIPSrc] = uint64(src)
	k[flowspace.FTPDst] = port
	return k
}

func TestFirstPacketDetoursThroughAuthority(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.Run(1)
	if n.M.Delivered != 1 {
		t.Fatalf("delivered = %d, drops = %+v", n.M.Delivered, n.M.Drops)
	}
	if n.M.Redirects != 1 {
		t.Fatalf("redirects = %d", n.M.Redirects)
	}
	// Path: 0→2 (2ms) + 2→4 (2ms) = 4ms; direct would be 4ms too (0→4),
	// so stretch is 1 on a line when the authority is en route.
	d := n.M.FirstPacketDelay.Mean()
	if d < 0.0039 || d > 0.0041 {
		t.Fatalf("first packet delay = %v, want ~4ms", d)
	}
}

func TestSecondPacketHitsCache(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.InjectPacket(0.5, 0, flowKey(1, 80), 100, 1) // after install completes
	n.Run(1)
	if n.M.Redirects != 1 {
		t.Fatalf("second packet must hit the cache: redirects = %d", n.M.Redirects)
	}
	if n.M.Delivered != 2 {
		t.Fatalf("delivered = %d", n.M.Delivered)
	}
	// Second packet goes direct: 4 hops × 1ms.
	d := n.M.LaterPacketDelay.Mean()
	if d < 0.0039 || d > 0.0041 {
		t.Fatalf("later packet delay = %v", d)
	}
	sw := n.Switches[0]
	if sw.Stats.CacheHits.Load() != 1 {
		t.Fatalf("cache hits = %d", sw.Stats.CacheHits.Load())
	}
}

func TestPolicyDropCountsAsCompletedSetup(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	n.InjectPacket(0, 0, flowKey(1, 22), 100, 0) // matches the drop rule
	n.Run(1)
	if n.M.Drops.Policy != 1 {
		t.Fatalf("drops = %+v", n.M.Drops)
	}
	if n.M.SetupsCompleted != 1 {
		t.Fatalf("setups = %d", n.M.SetupsCompleted)
	}
	if n.M.Delivered != 0 {
		t.Fatal("dropped packet must not be delivered")
	}
}

func TestDropRuleGetsCachedToo(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	n.InjectPacket(0, 0, flowKey(1, 22), 100, 0)
	n.InjectPacket(0.5, 0, flowKey(1, 22), 100, 1)
	n.Run(1)
	if n.M.Redirects != 1 {
		t.Fatalf("drop decision must be cached: redirects = %d", n.M.Redirects)
	}
	if n.M.Drops.Policy != 2 {
		t.Fatalf("drops = %+v", n.M.Drops)
	}
}

func TestAuthorityCapacitySheds(t *testing.T) {
	n := testNet(t, NetworkConfig{AuthorityRate: 10, AuthorityQueue: 5})
	// 100 distinct flows at t=0 against a 10/s authority with queue 5.
	for i := 0; i < 100; i++ {
		n.InjectPacket(0, 0, flowKey(uint32(i+1000), 80), 100, 0)
	}
	n.Run(0.9)
	if n.M.Drops.AuthorityQueue == 0 {
		t.Fatal("overloaded authority must shed misses")
	}
	if n.M.Delivered == 0 {
		t.Fatal("some flows must still complete")
	}
	if n.M.Delivered > 15 {
		t.Fatalf("delivered %d exceeds authority capacity bound", n.M.Delivered)
	}
}

func TestCacheIdleTimeoutForcesNewMiss(t *testing.T) {
	n := testNet(t, NetworkConfig{CacheIdle: 1})
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.InjectPacket(5, 0, flowKey(1, 80), 100, 1) // cache expired by then
	n.Run(10)
	if n.M.Redirects != 2 {
		t.Fatalf("expired cache must redirect again: redirects = %d", n.M.Redirects)
	}
}

func TestFailoverToBackupAuthority(t *testing.T) {
	// Ring topology so the data plane survives an authority failure:
	// 0-1-2-3-4-0, authorities at 1 and 3, all traffic forwarded to 0.
	g := topo.NewGraph()
	for i := 0; i < 5; i++ {
		g.AddLink(topo.NodeID(i), topo.NodeID((i+1)%5), 0.001)
	}
	policy := []flowspace.Rule{{
		ID: 1, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 0},
	}}
	// Exact-match caching so every distinct flow redirects — keeps the
	// failover window observable (a cover rule would absorb later flows).
	n, err := NewNetwork(g, []uint32{1, 3}, policy, NetworkConfig{Strategy: StrategyExact})
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(n)
	c.FailoverDelay = 0.1

	// One partition replicated at both authorities. Ingress 0's nearest
	// replica is authority 1 (one hop); fail it. Authority 3 survives.
	const failed, survivor = 1, 3
	n.Eng.At(1, func() {
		n.FailAuthority(failed)
		c.OnTopologyChange()
	})
	// Flow A before the failure: served by authority 1. Flow B during the
	// failover window: redirected at the dead authority → lost. Flow C
	// after convergence: the rule pointing at 1 is withdrawn, so the
	// lower-priority rule redirects to the survivor. All three are
	// distinct flows, and exact caching keeps each one a miss.
	n.InjectPacket(0.0, 0, flowKey(100, 80), 100, 0)
	n.InjectPacket(1.05, 0, flowKey(101, 80), 100, 0)
	n.InjectPacket(1.5, 0, flowKey(102, 80), 100, 0)
	n.Run(3)

	if n.M.Drops.Unreachable == 0 {
		t.Fatal("the failover-window flow must be lost")
	}
	if n.M.Delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (before-failure and after-convergence), drops %+v",
			n.M.Delivered, n.M.Drops)
	}
	// After convergence, redirects land on the survivor: its authority
	// table must have seen traffic.
	if n.Switches[survivor].Stats.AuthorityHits.Load() == 0 {
		t.Fatal("surviving authority must have served the post-failover flow")
	}
}

func TestPolicyUpdateSwapsBehaviour(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	c := NewController(n)
	// Prime the cache with the old policy.
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.Run(0.5)
	if n.M.Delivered != 1 {
		t.Fatal("old policy must forward port 80")
	}
	// New policy: drop everything.
	newPolicy := []flowspace.Rule{{
		ID: 1, Priority: 0, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActDrop},
	}}
	if _, err := c.UpdatePolicy(newPolicy); err != nil {
		t.Fatal(err)
	}
	n.Run(1) // let the push land
	if c.PolicyVersion != 1 {
		t.Fatalf("policy version = %d", c.PolicyVersion)
	}
	// Same flow now must be dropped (stale cache rules were cleared).
	n.InjectPacket(1.5, 0, flowKey(1, 80), 100, 42)
	n.Run(3)
	if n.M.Delivered != 1 {
		t.Fatalf("new policy must drop port 80: delivered = %d", n.M.Delivered)
	}
	if n.M.Drops.Policy != 1 {
		t.Fatalf("drops = %+v", n.M.Drops)
	}
}

func TestInvalidateHost(t *testing.T) {
	n := testNet(t, NetworkConfig{Strategy: StrategyExact})
	c := NewController(n)
	n.InjectPacket(0, 0, flowKey(777, 80), 100, 0)
	n.Run(0.5)
	if n.CacheEntries() == 0 {
		t.Fatal("a cache entry must exist")
	}
	removed := c.InvalidateHost(777)
	if removed == 0 {
		t.Fatal("mobility invalidation must remove the host's cache rules")
	}
	if n.CacheEntries() != 0 {
		t.Fatal("cache must be empty after invalidation")
	}
	if c.InvalidateHost(123456) != 0 {
		t.Fatal("unrelated host must remove nothing")
	}
}

func TestIngressIsAuthorityNoDetour(t *testing.T) {
	// When the ingress switch hosts the partition, misses are handled
	// locally: the authority table matches before the partition rule.
	g := topo.Linear(3, 0.001)
	policy := []flowspace.Rule{{
		ID: 1, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 2},
	}}
	n, err := NewNetwork(g, []uint32{0}, policy, NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.Run(1)
	if n.M.Redirects != 0 {
		t.Fatalf("local authority must avoid redirects, got %d", n.M.Redirects)
	}
	if n.M.Delivered != 1 {
		t.Fatalf("delivered = %d", n.M.Delivered)
	}
}

func TestStretchRecordedOnDetour(t *testing.T) {
	// Authority off the direct path: line 0-1-2-3-4 with authority at 4,
	// traffic 0→2: detour 0→4→2 = 4+2 = 6ms vs direct 2ms → stretch 3.
	g := topo.Linear(5, 0.001)
	policy := []flowspace.Rule{{
		ID: 1, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 2},
	}}
	n, err := NewNetwork(g, []uint32{4}, policy, NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.Run(1)
	if n.M.Stretch.N() != 1 {
		t.Fatalf("stretch samples = %d", n.M.Stretch.N())
	}
	if s := n.M.Stretch.Mean(); s < 2.99 || s > 3.01 {
		t.Fatalf("stretch = %v, want 3", s)
	}
}

func TestNetworkValidation(t *testing.T) {
	g := topo.Linear(3, 0.001)
	if _, err := NewNetwork(g, nil, nil, NetworkConfig{}); err == nil {
		t.Fatal("no authorities must error")
	}
	if _, err := NewNetwork(g, []uint32{99}, nil, NetworkConfig{}); err == nil {
		t.Fatal("authority outside the topology must error")
	}
}

func TestManyFlowsAllStrategiesDeliverCorrectly(t *testing.T) {
	// End-to-end consistency sweep: random policy, random flows; every
	// injected packet must be delivered iff the global policy forwards it,
	// under all three cache strategies.
	rng := rand.New(rand.NewSource(113))
	for _, strat := range []CacheStrategy{StrategyCover, StrategyDependent, StrategyExact} {
		g, access := topo.Campus(3, 2, 2, 0.001)
		policy := randPolicy(rng, 60)
		// Point forwards at real switches.
		for i := range policy {
			if policy[i].Action.Kind == flowspace.ActForward {
				policy[i].Action.Arg = uint32(access[int(policy[i].Action.Arg)%len(access)])
			}
		}
		auths := PlaceAuthorities(g, 2)
		n, err := NewNetwork(g, auths, policy, NetworkConfig{
			Strategy:  strat,
			Partition: PartitionConfig{MaxRulesPerPartition: 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		wantDelivered := 0
		wantDropped := 0
		for i := 0; i < 150; i++ {
			k := randKey(rng)
			r, ok := flowspace.EvalTable(policy, k)
			if !ok {
				continue
			}
			if r.Action.Kind == flowspace.ActForward {
				wantDelivered += 2
			} else {
				wantDropped += 2
			}
			ingress := uint32(access[i%len(access)])
			n.InjectPacket(float64(i)*0.01, ingress, k, 100, 0)
			n.InjectPacket(float64(i)*0.01+2, ingress, k, 100, 1)
		}
		n.Run(10)
		if int(n.M.Delivered) != wantDelivered {
			t.Fatalf("%v: delivered %d want %d (drops %+v)",
				strat, n.M.Delivered, wantDelivered, n.M.Drops)
		}
		if int(n.M.Drops.Policy) != wantDropped {
			t.Fatalf("%v: policy drops %d want %d", strat, n.M.Drops.Policy, wantDropped)
		}
	}
}

func TestPartitionTableInstalledEverywhere(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	for id, sw := range n.Switches {
		if sw.Table(proto.TablePartition).Len() == 0 {
			t.Fatalf("switch %d has no partition rules", id)
		}
	}
}

// TestCacheRuleIDsUniqueAcrossPartitions pins the cache-rule ID layout:
// with more partitions than authority switches (the paper's normal case)
// every authority switch answers misses for several partitions, and the
// cache rules they generate must not share IDs — an ingress cache replaces
// by ID, so colliding rules evict each other and a fixed flow set never
// stops missing.
func TestCacheRuleIDsUniqueAcrossPartitions(t *testing.T) {
	var policy []flowspace.Rule
	for i := uint64(0); i < 8; i++ {
		policy = append(policy, flowspace.Rule{
			ID: i + 1, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 1000+i),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4},
		})
	}
	n, err := NewNetwork(topo.Linear(5, 0.001), []uint32{1, 3}, policy, NetworkConfig{
		Strategy:  StrategyExact,
		Partition: PartitionConfig{MaxRulesPerPartition: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Assignment().Partitions); got < 4 {
		t.Fatalf("want >=4 partitions on 2 authority switches, got %d", got)
	}
	pass := func(at float64) {
		for src := uint32(1); src <= 8; src++ {
			for port := uint64(1000); port < 1008; port++ {
				n.InjectPacket(at, 0, flowKey(src, port), 100, 0)
			}
		}
		n.Run(at + 1)
	}
	pass(0)
	warm := n.M.Redirects
	pass(2)
	if extra := n.M.Redirects - warm; extra != 0 {
		t.Fatalf("second pass over a warmed trace redirected %d of 64 packets", extra)
	}
	if n.M.Delivered != 128 {
		t.Fatalf("delivered = %d, want 128 (drops %+v)", n.M.Delivered, n.M.Drops)
	}
}
