package core

import (
	"math/rand"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
)

// firewallPartition: a deep dependency chain — many high-priority deny
// rules over one broad permit — inside a single all-covering partition.
func firewallPartition(denies int) Partition {
	rules := make([]flowspace.Rule, 0, denies+1)
	for i := 0; i < denies; i++ {
		rules = append(rules, flowspace.Rule{
			ID:       uint64(i + 1),
			Priority: int32(100 - i),
			Match:    flowspace.MatchAll().WithExact(flowspace.FTPDst, uint64(i+1)),
			Action:   flowspace.Action{Kind: flowspace.ActDrop},
		})
	}
	rules = append(rules, flowspace.Rule{
		ID: uint64(denies + 1), Priority: 0, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 9},
	})
	return Partition{Region: flowspace.MatchAll(), Rules: rules}
}

func portKey(p uint64) flowspace.Key {
	var k flowspace.Key
	k[flowspace.FTPDst] = p
	return k
}

func TestHandleMissMatchesPolicy(t *testing.T) {
	a := NewAuthority(1, firewallPartition(5), StrategyCover)
	res := a.HandleMiss(portKey(3))
	if !res.OK || res.Rule.Action.Kind != flowspace.ActDrop {
		t.Fatalf("port 3 must hit a deny: %+v", res)
	}
	res = a.HandleMiss(portKey(8080))
	if !res.OK || res.Rule.Action.Kind != flowspace.ActForward {
		t.Fatalf("port 8080 must hit the permit: %+v", res)
	}
	if a.Misses != 2 {
		t.Fatalf("misses = %d", a.Misses)
	}
}

func TestHandleMissPolicyHole(t *testing.T) {
	p := Partition{Region: flowspace.MatchAll(), Rules: []flowspace.Rule{{
		ID: 1, Priority: 1,
		Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 80),
		Action: flowspace.Action{Kind: flowspace.ActForward},
	}}}
	a := NewAuthority(1, p, StrategyCover)
	if res := a.HandleMiss(portKey(22)); res.OK {
		t.Fatal("unmatched packet must report a hole")
	}
}

func TestCoverStrategySingleRuleForDeepChain(t *testing.T) {
	// The motivating case: permitting traffic under many denies must cost
	// ONE cache entry with the cover strategy.
	a := NewAuthority(1, firewallPartition(50), StrategyCover)
	res := a.HandleMiss(portKey(9999))
	if !res.OK {
		t.Fatal("must match permit")
	}
	if len(res.CacheMods) != 1 {
		t.Fatalf("cover strategy must emit one cache rule, got %d", len(res.CacheMods))
	}
	mod := res.CacheMods[0]
	if mod.Table != proto.TableCache || mod.Op != proto.OpAdd {
		t.Fatalf("bad mod: %+v", mod)
	}
	// The cover must include the packet and exclude every denied port.
	if !mod.Rule.Match.Matches(portKey(9999)) {
		t.Fatal("cover must contain the packet")
	}
	for port := uint64(1); port <= 50; port++ {
		if mod.Rule.Match.Matches(portKey(port)) {
			t.Fatalf("cover leaks denied port %d", port)
		}
	}
}

func TestDependentStrategyCachesChain(t *testing.T) {
	a := NewAuthority(1, firewallPartition(10), StrategyDependent)
	res := a.HandleMiss(portKey(9999))
	if len(res.CacheMods) != 11 {
		t.Fatalf("dependent strategy must cache rule + 10 dependencies, got %d", len(res.CacheMods))
	}
	// Top deny rule has no dependencies: one entry.
	res = a.HandleMiss(portKey(1))
	if len(res.CacheMods) != 1 {
		t.Fatalf("top rule must cache alone, got %d", len(res.CacheMods))
	}
}

func TestExactStrategyMicroflow(t *testing.T) {
	a := NewAuthority(1, firewallPartition(10), StrategyExact)
	k := portKey(9999)
	res := a.HandleMiss(k)
	if len(res.CacheMods) != 1 {
		t.Fatalf("exact strategy must emit one rule, got %d", len(res.CacheMods))
	}
	m := res.CacheMods[0].Rule.Match
	if !m.Matches(k) {
		t.Fatal("exact rule must match the packet")
	}
	if m.FreeBits() != 0 {
		t.Fatalf("exact rule must pin every bit, %d free", m.FreeBits())
	}
}

func TestCacheRulesSemanticallyExact(t *testing.T) {
	// For every strategy: installing the generated cache rules and then
	// evaluating any packet that hits them must agree with the global
	// policy — DIFANE's correctness property.
	rng := rand.New(rand.NewSource(107))
	policy := randPolicy(rng, 80)
	parts := BuildPartitions(policy, PartitionConfig{MaxRulesPerPartition: 20})
	for _, strat := range []CacheStrategy{StrategyCover, StrategyDependent, StrategyExact} {
		auths := make([]*Authority, len(parts))
		for i, p := range parts {
			auths[i] = NewAuthority(uint32(i), p, strat)
		}
		var cached []flowspace.Rule
		for trial := 0; trial < 200; trial++ {
			k := randKey(rng)
			for i, p := range parts {
				if !p.Region.Matches(k) {
					continue
				}
				res := auths[i].HandleMiss(k)
				want, wantOK := flowspace.EvalTable(policy, k)
				if res.OK != wantOK {
					t.Fatalf("%v: miss result ok=%v want %v", strat, res.OK, wantOK)
				}
				if res.OK && res.Rule.Action != want.Action {
					t.Fatalf("%v: action %v want %v", strat, res.Rule.Action, want.Action)
				}
				for _, mod := range res.CacheMods {
					cached = append(cached, mod.Rule)
				}
				break
			}
		}
		// Any packet hitting the accumulated cache must get the same
		// action as the global policy.
		for trial := 0; trial < 4000; trial++ {
			k := randKey(rng)
			got, ok := flowspace.EvalTable(cached, k)
			if !ok {
				continue // cache miss: would be redirected, always safe
			}
			want, wantOK := flowspace.EvalTable(policy, k)
			if !wantOK {
				t.Fatalf("%v: cache hit for packet the policy misses", strat)
			}
			if got.Action != want.Action {
				t.Fatalf("%v: cached action %v differs from policy %v for %v",
					strat, got.Action, want.Action, k)
			}
		}
	}
}

func TestOriginTracking(t *testing.T) {
	a := NewAuthority(3, firewallPartition(5), StrategyCover)
	res := a.HandleMiss(portKey(9999))
	id := res.CacheMods[0].Rule.ID
	origin, ok := a.OriginOf(id)
	if !ok || origin != res.Rule.ID {
		t.Fatalf("origin of %d = %d ok=%v want %d", id, origin, ok, res.Rule.ID)
	}
	// Policy rule IDs map to themselves.
	if o, ok := a.OriginOf(42); !ok || o != 42 {
		t.Fatal("policy IDs must map to themselves")
	}
	if _, ok := a.OriginOf(cacheIDBase + 999999); ok {
		t.Fatal("unknown cache ID must report !ok")
	}
}

func TestCacheModsCarryTimeouts(t *testing.T) {
	a := NewAuthority(1, firewallPartition(3), StrategyCover)
	a.CacheIdleTimeout = 10
	res := a.HandleMiss(portKey(500))
	if res.CacheMods[0].Idle != 10 || res.CacheMods[0].Hard != 0 {
		t.Fatalf("timeouts not propagated: %+v", res.CacheMods[0])
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyCover.String() != "cover" || StrategyDependent.String() != "dependent" ||
		StrategyExact.String() != "exact" {
		t.Fatal("strategy names")
	}
	if CacheStrategy(9).String() == "" {
		t.Fatal("unknown strategy must render")
	}
}
