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
// score every entry per eviction, as cachepolicy's does.
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
	}{{"256", 256, nil}, {"10000", 10000, nil}, {"256/cost-aware", 256, costAware}} {
		b.Run(bc.name, func(b *testing.B) {
			tb, insert := fullCache(b, bc.n)
			tb.SetVictimFn(bc.victim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				insert()
			}
		})
	}
}
