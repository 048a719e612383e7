package core

import (
	"math/rand"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/topo"
)

func TestPolicyCountersMatchTraffic(t *testing.T) {
	// 10 packets to port 80 (rule 1), 4 packets elsewhere (rule 2).
	n := testNet(t, NetworkConfig{})
	for i := 0; i < 10; i++ {
		n.InjectPacket(float64(i)*0.1, 0, flowKey(uint32(i), 80), 100, uint64(i%2))
	}
	for i := 0; i < 4; i++ {
		n.InjectPacket(float64(i)*0.1, 0, flowKey(uint32(i), 22), 200, 0)
	}
	n.Run(10)
	c1 := n.CountersFor(1)
	c2 := n.CountersFor(2)
	if c1.Packets != 10 || c1.Bytes != 1000 {
		t.Fatalf("rule 1 counters = %+v", c1)
	}
	if c2.Packets != 4 || c2.Bytes != 800 {
		t.Fatalf("rule 2 counters = %+v", c2)
	}
}

func TestPolicyCountersNoDoubleCounting(t *testing.T) {
	// Across all strategies the total counted packets must equal the
	// injected packets — redirected packets count once (at the authority),
	// cached packets once (at the ingress).
	rng := rand.New(rand.NewSource(127))
	for _, strat := range []CacheStrategy{StrategyCover, StrategyDependent, StrategyExact} {
		n := testNet(t, NetworkConfig{Strategy: strat})
		injected := 0
		for i := 0; i < 60; i++ {
			port := uint64(80)
			if i%3 == 0 {
				port = uint64(1000 + rng.Intn(100))
			}
			n.InjectPacket(float64(i)*0.05, 0, flowKey(uint32(i%7), port), 100, uint64(i%4))
			injected++
		}
		n.Run(20)
		var total uint64
		for _, rc := range n.PolicyCounters() {
			total += rc.Packets
		}
		if total != uint64(injected) {
			t.Fatalf("%v: counted %d packets, injected %d", strat, total, injected)
		}
	}
}

func TestPolicyCountersUnknownRule(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	if c := n.CountersFor(999); c.Packets != 0 || c.Bytes != 0 {
		t.Fatalf("unknown rule counters = %+v", c)
	}
}

func TestShadowedRuleIDs(t *testing.T) {
	rules := []flowspace.Rule{
		{ID: 1, Priority: 100, Match: flowspace.MatchAll().WithPrefix(flowspace.FIPSrc, 0x0A000000, 8),
			Action: flowspace.Action{Kind: flowspace.ActDrop}},
		{ID: 2, Priority: 50, Match: flowspace.MatchAll().WithPrefix(flowspace.FIPSrc, 0x0A0A0000, 16),
			Action: flowspace.Action{Kind: flowspace.ActForward}},
		{ID: 3, Priority: 10, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActDrop}},
	}
	_, shadowed := CompactPolicy(rules)
	if len(shadowed) != 1 || shadowed[0] != 2 {
		t.Fatalf("shadowed = %v, want [2]", shadowed)
	}
}

func TestCompactPolicyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	rules := randPolicy(rng, 120)
	// Inject guaranteed-shadowed rules.
	rules = append(rules,
		flowspace.Rule{ID: 9001, Priority: -5, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 1}},
		flowspace.Rule{ID: 9002, Priority: -10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActDrop}},
	)
	kept, removed := CompactPolicy(rules)
	if len(kept)+len(removed) != len(rules) {
		t.Fatalf("kept %d + removed %d != %d", len(kept), len(removed), len(rules))
	}
	if len(removed) < 2 {
		t.Fatalf("the planted shadowed rules must be removed: %v", removed)
	}
	for _, id := range removed {
		for _, r := range kept {
			if r.ID == id {
				t.Fatalf("rule %d both kept and removed", id)
			}
		}
	}
	// Semantics identical on random keys.
	for i := 0; i < 3000; i++ {
		k := randKey(rng)
		want, wantOK := flowspace.EvalTable(rules, k)
		got, gotOK := flowspace.EvalTable(kept, k)
		if wantOK != gotOK || (gotOK && got.ID != want.ID) {
			t.Fatalf("compaction changed semantics for %v: got %v want %v", k, got, want)
		}
	}
}

func TestCompactPolicyIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	rules := randPolicy(rng, 80)
	kept1, _ := CompactPolicy(rules)
	kept2, removed2 := CompactPolicy(kept1)
	if len(removed2) != 0 || len(kept2) != len(kept1) {
		t.Fatalf("second compaction must be a no-op, removed %v", removed2)
	}
}

func TestPolicyCountersAfterConsistentUpdate(t *testing.T) {
	// Regression: consistent updates re-key staged rules into a
	// generation band; counters must still aggregate under the original
	// policy rule IDs.
	n, c := consistentNet(t)
	_, cleanupAt, err := c.UpdatePolicyConsistent(denyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	n.Run(cleanupAt + 0.1)
	for i := 0; i < 5; i++ {
		n.InjectPacket(cleanupAt+0.2+float64(i)*0.01, 0, flowKey(uint32(i), 80), 100, 0)
	}
	n.Run(cleanupAt + 2)
	rc := n.CountersFor(2) // the new policy's drop rule
	if rc.Packets != 5 {
		t.Fatalf("post-update counters = %+v, want 5 packets under rule 2", rc)
	}
}

// The shadowing analysis of a running network, as difanectl's compact
// command runs it: CompactPolicy over the network's policy.
func TestNetworkShadowedRules(t *testing.T) {
	g := topo.Linear(3, 0.001)
	policy := []flowspace.Rule{
		{ID: 1, Priority: 10, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 2}},
		{ID: 2, Priority: 1, Match: flowspace.MatchAll().WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActDrop}}, // shadowed
	}
	n, err := NewNetwork(g, []uint32{1}, policy, NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, sh := CompactPolicy(n.Policy())
	if len(sh) != 1 || sh[0] != 2 {
		t.Fatalf("shadowed = %v", sh)
	}
}
