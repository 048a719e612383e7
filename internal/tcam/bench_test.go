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
// index and adds the newcomer, and every 256th rebuilds the index.
func BenchmarkInsertEvict(b *testing.B) {
	b.Run("256", func(b *testing.B) {
		policy := classBenchPolicy(1024)
		tb := New("evict", 256, EvictLRU)
		insert := func(i int) {
			r := policy[i%len(policy)]
			r.ID = 1<<50 + uint64(i) // the rules repeat; their IDs may not
			if err := tb.Insert(float64(i), r, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 256; i++ {
			insert(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			insert(256 + i)
		}
	})
}
