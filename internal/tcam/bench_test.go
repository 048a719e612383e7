package tcam

import (
	"fmt"
	"math/rand"
	"testing"

	"difane/internal/flowspace"
)

var sink uint64

// BenchmarkLookup prices one lookup of a random in-policy key against
// ClassBench tables of growing size: the cost the index keeps from
// growing with the table.
func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{64, 1024, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			tb, policy := classBench(b, n)
			rng := rand.New(rand.NewSource(9))
			keys := make([]flowspace.Key, 4096)
			for i := range keys {
				keys[i] = keyIn(rng, policy[rng.Intn(len(policy))].Match)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _ := tb.Lookup(0, keys[i%len(keys)], 64)
				sink += r.ID
			}
		})
	}
}

// BenchmarkInsertEvict prices an insert into an always-full LRU cache, as
// a miss storm drives it: every insert picks a victim, removes it from the
// index and adds the newcomer. 256 is the benchmark's cache; 10000 shows
// the cost does not follow the table's size; cost-aware has a VictimFunc
// score every entry per eviction, as cachepolicy's does; disjoint is 256
// on what an ingress cache holds, an authority's carved covers, in a
// NewDisjoint table.
func BenchmarkInsertEvict(b *testing.B) {
	costAware := func(now float64, cands []VictimCandidate) int {
		best, bestScore := -1, 0.0
		for i := range cands {
			c := &cands[i]
			score := float64(c.Packets+1) * float64(1+c.Rule.Priority&7) / (1 + now - c.LastHit)
			if best < 0 || score < bestScore {
				best, bestScore = i, score
			}
		}
		return best
	}
	for _, bc := range []struct {
		name   string
		n      int
		victim VictimFunc
	}{{"256", 256, nil}, {"10000", 10000, nil}, {"256/cost-aware", 256, costAware}, {"256/disjoint", 256, nil}} {
		b.Run(bc.name, func(b *testing.B) {
			tb, insert := fullCache(b, bc.n)
			if bc.name == "256/disjoint" {
				tb, insert = filled(b, NewDisjoint("evict", bc.n, EvictLRU), classBenchCovers(1024))
			}
			tb.SetVictimFn(bc.victim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				insert()
			}
		})
	}
}

// classBenchCovers returns n distinct covers carved around random keys of
// classBenchPolicy(1024), as an authority carves them, each with its
// rule's priority and action: the rules a miss storm installs, pairwise
// disjoint.
func classBenchCovers(n int) []flowspace.Rule {
	policy := classBenchPolicy(1024)
	rng := rand.New(rand.NewSource(17))
	seen := map[flowspace.Match]bool{}
	var out []flowspace.Rule
	for len(out) < n {
		k := keyIn(rng, policy[rng.Intn(len(policy))].Match)
		hit := -1
		for i := range policy {
			if policy[i].Match.Holds(&k) && (hit < 0 || policy[i].Precedes(&policy[hit])) {
				hit = i
			}
		}
		if cover, ok := flowspace.CoverFor(policy, hit, flowspace.MatchAll(), k); ok && !seen[cover] {
			seen[cover] = true
			r := policy[hit]
			r.Match = cover
			out = append(out, r)
		}
	}
	return out
}
