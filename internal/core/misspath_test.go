package core

import (
	"fmt"
	"math/rand"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/workload"
)

// classBenchParts is the benchmark's miss-storm shape: a 1,024-rule
// ClassBench-like policy cut into two partitions of ~512 clipped rules.
func classBenchParts(tb testing.TB) []Partition {
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: 1024, MaxDepth: 4, PortRangeFrac: 0.1, DropFrac: 0.1,
		Egresses: []uint32{1, 2, 3, 4}, Seed: 42,
	})
	parts := BuildPartitions(policy, PartitionConfig{MaxRulesPerPartition: 256, MaxPartitions: 2})
	if len(parts) != 2 || len(parts[0].Rules) < 256 {
		tb.Fatalf("want 2 partitions of a few hundred rules, got %d (first holds %d)", len(parts), len(parts[0].Rules))
	}
	return parts
}

// keysInside draws n distinct keys, each from inside a random rule of p, so
// the misses land on rules deep in the table and not only on the default.
func keysInside(rng *rand.Rand, p Partition, n int) []flowspace.Key {
	seen := make(map[flowspace.Key]bool, n)
	keys := make([]flowspace.Key, 0, n)
	for len(keys) < n {
		var r [flowspace.NumFields]uint64
		for i := range r {
			r[i] = rng.Uint64()
		}
		k := p.Rules[rng.Intn(len(p.Rules))].Match.RandomKeyIn(r)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// referenceMiss answers a miss the way the miss path did before it kept
// dependency lists: EvalTable over the whole rule list, a scan to turn the
// rule back into an index, then CoverFor or DependentSet over the whole
// list again. It returns the matched rule and the cache rules to install
// (IDs left zero where the authority mints one).
func referenceMiss(p Partition, strat CacheStrategy, k flowspace.Key) (flowspace.Rule, []flowspace.Rule) {
	rule, ok := flowspace.EvalTable(p.Rules, k)
	if !ok {
		return flowspace.Rule{}, nil
	}
	hit := -1
	for i := range p.Rules {
		if p.Rules[i].ID == rule.ID {
			hit = i
		}
	}
	generated := flowspace.Rule{Priority: rule.Priority, Match: exactMatch(k), Action: rule.Action}
	switch strat {
	case StrategyCover:
		if cover, ok := flowspace.CoverFor(p.Rules, hit, p.Region, k); ok {
			generated.Match = cover
		}
	case StrategyDependent:
		out := []flowspace.Rule{rule}
		for _, j := range flowspace.DependentSet(p.Rules, hit) {
			out = append(out, p.Rules[j])
		}
		return rule, out
	}
	return rule, []flowspace.Rule{generated}
}

// checkAgainstReference holds a's answers for keys to referenceMiss over
// ref, mod for mod, and the minted IDs to their origin and to being minted
// once per generated match: two keys share an ID iff their matches are
// equal. minted, ID → match, and idOf, match → ID, live as long as a does:
// an ID never comes to stand for a second match, and a timeout change
// between two calls mints no match afresh.
func checkAgainstReference(t *testing.T, a *Authority, ref Partition, keys []flowspace.Key, minted map[uint64]flowspace.Match, idOf map[flowspace.Match]uint64) {
	t.Helper()
	for _, k := range keys {
		rule, want := referenceMiss(ref, a.Strategy, k)
		res := a.HandleMiss(k)
		if !res.OK || res.Rule != rule {
			t.Fatalf("%v key %v: matched %v (ok=%v), reference %v", a.Strategy, k, res.Rule, res.OK, rule)
		}
		if len(res.CacheMods) != len(want) {
			t.Fatalf("%v key %v: %d cache mods, reference %d", a.Strategy, k, len(res.CacheMods), len(want))
		}
		for i, mod := range res.CacheMods {
			if mod.Table != proto.TableCache || mod.Op != proto.OpAdd ||
				mod.Idle != a.CacheIdleTimeout || mod.Hard != 0 {
				t.Fatalf("%v key %v: bad mod %+v", a.Strategy, k, mod)
			}
			got := mod.Rule
			if a.Strategy != StrategyDependent {
				if origin, ok := a.OriginOf(got.ID); !ok || origin != rule.ID {
					t.Fatalf("%v key %v: minted ID %#x origin %d ok=%v, want origin %d",
						a.Strategy, k, got.ID, origin, ok, rule.ID)
				}
				if m, seen := minted[got.ID]; seen && m != got.Match {
					t.Fatalf("%v key %v: ID %#x minted for %v and again for %v", a.Strategy, k, got.ID, m, got.Match)
				}
				if id, seen := idOf[got.Match]; seen && id != got.ID {
					t.Fatalf("%v key %v: match %v minted as %#x and again as %#x", a.Strategy, k, got.Match, id, got.ID)
				}
				minted[got.ID], idOf[got.Match] = got.Match, got.ID
				got.ID = 0
			}
			if got != want[i] {
				t.Fatalf("%v key %v mod %d:\n got  %v\n want %v", a.Strategy, k, i, got, want[i])
			}
		}
	}
}

// The miss path — one indexed lookup, then a carve over the matched rule's
// dependency list, minted once per cover — must answer exactly as the three
// whole-list walks it replaced, for every strategy, on rules handed over in
// TCAM order and in any other, and again after a timeout change, which
// keeps every ID minted.
func TestHandleMissMatchesReference(t *testing.T) {
	parts := classBenchParts(t)
	for _, strat := range []CacheStrategy{StrategyCover, StrategyDependent, StrategyExact} {
		for pi, p := range parts {
			rng := rand.New(rand.NewSource(int64(200 + pi)))
			keys := keysInside(rng, p, 1500)

			shuffled := Partition{Region: p.Region, Rules: append([]flowspace.Rule(nil), p.Rules...)}
			rng.Shuffle(len(shuffled.Rules), func(i, j int) {
				shuffled.Rules[i], shuffled.Rules[j] = shuffled.Rules[j], shuffled.Rules[i]
			})
			handed := append([]flowspace.Rule(nil), shuffled.Rules...)

			for _, in := range []Partition{p, shuffled} {
				a := NewAuthority(7, in, strat)
				a.RegionIndex = pi
				minted, idOf := make(map[uint64]flowspace.Match), make(map[flowspace.Match]uint64)
				checkAgainstReference(t, a, p, keys, minted, idOf)
				a.CacheIdleTimeout = 5
				checkAgainstReference(t, a, p, keys, minted, idOf)
				if a.Misses != uint64(2*len(keys)) {
					t.Fatalf("misses = %d, want %d", a.Misses, 2*len(keys))
				}
			}
			for i := range handed {
				if shuffled.Rules[i] != handed[i] {
					t.Fatal("NewAuthority reordered the caller's rule slice")
				}
			}
		}
	}
}

// What a miss storm of never-repeated keys mints is bounded by the covers
// it lands in, not by the packets it sends: an ID, and the originOf entry
// that lives as long as the Authority does, is spent once per distinct
// cover (it was once per miss, up to the 2^24 the slot wraps at).
func TestMintsOncePerCover(t *testing.T) {
	p := classBenchParts(t)[0]
	a := NewAuthority(1, p, StrategyCover)
	a.RegionIndex = 0
	covers := make(map[flowspace.Match]uint64)
	for _, k := range keysInside(rand.New(rand.NewSource(3)), p, 100_000) {
		res := a.HandleMiss(k)
		if !res.OK || len(res.CacheMods) != 1 {
			t.Fatalf("key %v: %+v", k, res)
		}
		r := res.CacheMods[0].Rule
		if id, seen := covers[r.Match]; seen && id != r.ID {
			t.Fatalf("cover %v minted as %#x and again as %#x", r.Match, id, r.ID)
		}
		covers[r.Match] = r.ID
	}
	if len(covers) >= memoCap {
		t.Fatalf("%d distinct covers reach memoCap: the flush would re-mint some, pick fewer keys", len(covers))
	}
	if len(a.originOf) != len(covers) {
		t.Fatalf("100k misses in %d distinct covers left %d minted IDs", len(covers), len(a.originOf))
	}
	t.Logf("100k misses, %d distinct covers, %d minted IDs", len(covers), len(a.originOf))
	if a.Misses != 100_000 || a.CacheRulesSent != 100_000 {
		t.Fatalf("misses %d, cache rules sent %d, want 100000 each", a.Misses, a.CacheRulesSent)
	}
}

// Two partitions hosted on one switch mint from disjoint ID ranges for as
// long as they live: before, the counter was added unmasked into its
// 24-bit slot, and after 2^24 mints it carried into the RegionIndex bits,
// handing partition 0's flows the IDs partition 1 started from.
func TestCacheIDsStayInSlotPastWrap(t *testing.T) {
	ranges := make([][2]uint64, 2)
	for region := range ranges {
		a := NewAuthority(3, firewallPartition(2), StrategyExact)
		a.RegionIndex = region
		lo, hi, port := ^uint64(0), uint64(0), uint64(5000)
		mint := func(n int) {
			for i := 0; i < n; i++ {
				port++ // a new flow each time, so the memo cannot answer
				id := a.HandleMiss(portKey(port)).CacheMods[0].Rule.ID
				lo, hi = min(lo, id), max(hi, id)
			}
		}
		mint(3)
		a.nextID = 1<<cacheIDSlotShift - 3 // 2^24 mints later
		mint(6)
		ranges[region] = [2]uint64{lo, hi}
	}
	if ranges[0][1] >= ranges[1][0] {
		t.Fatalf("partition 0 minted up to %#x, partition 1 from %#x: ranges overlap", ranges[0][1], ranges[1][0])
	}
	if ranges[0][0] < cacheIDBase || ranges[1][1] >= partitionIDBase {
		t.Fatalf("minted IDs %#x..%#x leave [cacheIDBase, partitionIDBase)", ranges[0][0], ranges[1][1])
	}
}

// BenchmarkHandleMiss is one miss of a storm in full swing — the lookup in
// the authority table, the carve, the minted-cover probe — against the
// miss-storm shape's ~600-rule partition, whose few thousand covers are all
// minted after one pass, and against a 10,000-rule one, where the lookup is
// the index's 10k cost and the key pool lands in more covers than memoCap
// holds, so about half the misses mint again. One pass over the keys before
// the clock starts builds the table and the dependency lists, as a
// deployment's first seconds do.
func BenchmarkHandleMiss(b *testing.B) {
	big := Partition{Region: flowspace.MatchAll(), Rules: workload.ClassBenchLike(workload.ACLConfig{
		Rules: 10000, MaxDepth: 4, PortRangeFrac: 0.1, DropFrac: 0.1,
		Egresses: []uint32{1, 2, 3, 4}, Seed: 42,
	})}
	for _, p := range []Partition{classBenchParts(b)[0], big} {
		b.Run(fmt.Sprint(len(p.Rules)), func(b *testing.B) {
			keys := keysInside(rand.New(rand.NewSource(1)), p, 8*memoCap)
			a := NewAuthority(1, p, StrategyCover)
			a.RegionIndex = 0
			for _, k := range keys {
				a.HandleMiss(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := a.HandleMiss(keys[i%len(keys)]); !res.OK {
					b.Fatal("policy hole")
				}
			}
		})
	}
}
