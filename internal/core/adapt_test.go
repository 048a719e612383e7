package core

import (
	"math/rand"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/switchsim"
)

// A deployment that is not cost-aware holds a nil adapter and calls it all
// the same: no picker for its caches, the default timeout, and a round that
// does nothing.
func TestNilCacheAdapter(t *testing.T) {
	for _, choice := range []EvictionChoice{EvictDefaultLRU, EvictLFU, EvictNone} {
		if a := NewCacheAdapter(choice); a != nil {
			t.Fatalf("NewCacheAdapter(%v) = %v, want nil", choice, a)
		}
	}
	var a *CacheAdapter
	if a.VictimFn() != nil {
		t.Fatal("a nil adapter handed out a victim picker")
	}
	if got := a.Idle(3, 7.5); got != 7.5 {
		t.Fatalf("Idle = %g, want the default 7.5", got)
	}
	sw := switchsim.New(1, switchsim.Config{})
	mod := proto.FlowMod{Table: proto.TableCache, Op: proto.OpAdd,
		Rule: flowspace.Rule{ID: 1, Match: exactMatch(flowKey(1, 80))}}
	if err := sw.ApplyFlowMod(0, &mod); err != nil {
		t.Fatal(err)
	}
	a.SetAssignment(Assignment{})
	a.ObserveHit(&mod.Rule.Match)
	a.ObserveMiss(0, 0.01)
	a.RegisterMetrics(nil)
	a.Round(1, nil, []*switchsim.Switch{sw}, 1, nil)
	if got := sw.Table(proto.TableCache).Len(); got != 1 {
		t.Fatalf("a nil adapter's round left %d cache entries, want the 1 it found", got)
	}
}

// CoverOf is the miss path's answer without the miss: same rule, same
// cover, and nothing counted, minted or allocated for it.
func TestCoverOfMintsNothing(t *testing.T) {
	parts := classBenchParts(t)
	p := parts[0]
	a, miss := NewAuthority(1, p, StrategyCover), NewAuthority(1, p, StrategyCover)
	keys := keysInside(rand.New(rand.NewSource(5)), p, 2000)
	covered := 0
	for _, k := range keys {
		rule, cover, ok := a.CoverOf(k)
		res := miss.HandleMiss(k)
		if rule != res.Rule {
			t.Fatalf("key %v: CoverOf matched %v, HandleMiss %v", k, rule, res.Rule)
		}
		if minted := res.CacheMods[0].Rule.Match; ok && cover != minted {
			t.Fatalf("key %v: CoverOf %v, HandleMiss minted %v", k, cover, minted)
		} else if !ok && minted != exactMatch(k) {
			t.Fatalf("key %v: CoverOf found no cover, HandleMiss minted %v", k, minted)
		}
		if ok {
			covered++
		}
	}
	if covered == 0 {
		t.Fatal("no key had a cover: the comparison is vacuous")
	}
	for _, k := range keysInside(rand.New(rand.NewSource(6)), parts[1], 10) {
		if _, _, ok := a.CoverOf(k); ok {
			t.Fatalf("key %v of the other partition has a cover in this one", k)
		}
	}
	if a.Misses != 0 || a.CacheRulesSent != 0 || len(a.originOf) != 0 || len(a.minted) != 0 {
		t.Fatalf("CoverOf left misses=%d sent=%d minted IDs=%d covers=%d, want none",
			a.Misses, a.CacheRulesSent, len(a.originOf), len(a.minted))
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		a.CoverOf(keys[i%len(keys)])
		i++
	}); allocs != 0 {
		t.Fatalf("CoverOf allocates %.1f times a call once warm, want 0", allocs)
	}
}

// Aggregation replaces exact-match cache entries by the cover the miss path
// itself would have installed for them: on a ClassBench policy, every
// entry a round folds away is then answered by a rule whose match is the
// whole-list CoverFor reference for its key and the match a StrategyCover
// authority mints for it, with the matched rule's priority and action —
// and an entry with too few neighbours under its cover, or no cover, stays.
func TestAggregationInstallsTheMissPathCover(t *testing.T) {
	parts := classBenchParts(t)
	a := NewCacheAdapter(EvictCostAware)
	a.SetAssignment(Assignment{Partitions: parts})
	sw := switchsim.New(1, switchsim.Config{})

	type flow struct {
		key   flowspace.Key
		rule  flowspace.Rule
		cover flowspace.Match // the reference's; an exact match when it has none
	}
	var flows []flow
	group := make(map[flowspace.Match]int)
	for pi, p := range parts {
		miss := NewAuthority(1, p, StrategyCover)
		for _, k := range keysInside(rand.New(rand.NewSource(int64(40+pi))), p, 1500) {
			rule, want := referenceMiss(p, StrategyCover, k)
			if minted := miss.HandleMiss(k).CacheMods[0].Rule.Match; minted != want[0].Match {
				t.Fatalf("key %v: reference cover %v, HandleMiss minted %v", k, want[0].Match, minted)
			}
			mod := proto.FlowMod{Table: proto.TableCache, Op: proto.OpAdd, Rule: flowspace.Rule{
				ID: uint64(1000 + len(flows)), Priority: rule.Priority, Match: exactMatch(k), Action: rule.Action}}
			if err := sw.ApplyFlowMod(0, &mod); err != nil {
				t.Fatal(err)
			}
			flows = append(flows, flow{k, rule, want[0].Match})
			group[want[0].Match]++
		}
	}

	var m Measurements
	a.Round(1, &m, []*switchsim.Switch{sw}, 10, func(int, float64) {})

	folded := 0
	for i, f := range flows {
		got := sw.Peek(f.key)
		if !got.OK || got.Table != proto.TableCache {
			t.Fatalf("flow %d: key %v no longer hits the cache", i, f.key)
		}
		if group[f.cover] < 3 || f.cover == exactMatch(f.key) {
			if got.Rule.ID != uint64(1000+i) {
				t.Fatalf("flow %d: %d entries share cover %v, yet rule %#x answers in place of its own entry",
					i, group[f.cover], f.cover, got.Rule.ID)
			}
			continue
		}
		folded++
		if got.Rule.ID <= aggIDBase {
			t.Fatalf("flow %d: %d entries share cover %v, yet entry %#x was not folded", i, group[f.cover], f.cover, got.Rule.ID)
		}
		if got.Rule.Match != f.cover || got.Rule.Priority != f.rule.Priority || got.Rule.Action != f.rule.Action {
			t.Fatalf("flow %d: installed %v, want cover %v of rule %v", i, got.Rule, f.cover, f.rule)
		}
	}
	if folded == 0 {
		t.Fatal("no entry was folded: the comparison is vacuous")
	}
	t.Logf("%d of %d entries folded, %d cache entries left", folded, len(flows), sw.Table(proto.TableCache).Len())
}
