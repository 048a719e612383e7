package tcam

import "testing"

// Tests for the budget-driven extension points: custom victim selection
// and shrink-on-SetCapacity.

func TestVictimFuncOverridesPolicy(t *testing.T) {
	tb := New("test", 2, EvictLRU)
	picked := -1
	tb.SetVictimFn(func(now float64, cands []VictimCandidate) int {
		// Pick the MRU entry — the opposite of the built-in LRU order.
		best, bestHit := -1, -1.0
		for i, c := range cands {
			if c.LastHit > bestHit {
				best, bestHit = i, c.LastHit
			}
		}
		picked = best
		return best
	})
	mustInsert(t, tb, 0, rule(1, 10, 80))
	mustInsert(t, tb, 1, rule(2, 10, 81))
	tb.Lookup(2, keyPort(81), 64) // entry 2 is now MRU
	mustInsert(t, tb, 3, rule(3, 10, 82))
	if picked < 0 {
		t.Fatal("victim fn was never consulted")
	}
	if _, _, ok := counters(tb, 2); ok {
		t.Fatal("MRU entry 2 survived; custom picker should have evicted it")
	}
	if _, _, ok := counters(tb, 1); !ok {
		t.Fatal("LRU entry 1 evicted despite custom picker choosing MRU")
	}
}

func TestVictimFuncDeclineFallsBack(t *testing.T) {
	tb := New("test", 1, EvictLRU)
	tb.SetVictimFn(func(now float64, cands []VictimCandidate) int { return -1 })
	mustInsert(t, tb, 0, rule(1, 10, 80))
	// Decline → built-in LRU picks entry 1; the insert must still land.
	mustInsert(t, tb, 1, rule(2, 10, 81))
	if _, _, ok := counters(tb, 2); !ok {
		t.Fatal("insert failed after victim fn declined")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

// A cost-aware eviction scores every candidate, but from scratch the table
// keeps and by pointer to the entry's own rule: the evicting insert
// allocates its new entry and, now and then, a leaf of the index — not a
// candidate list of copied rules per eviction.
func TestVictimFuncEvictionAllocatesOnlyTheEntry(t *testing.T) {
	tb, insert := fullCache(t, 256)
	offered := 0
	tb.SetVictimFn(func(now float64, cands []VictimCandidate) int {
		offered = len(cands)
		oldest := 0
		for i := range cands {
			if cands[i].LastHit < cands[oldest].LastHit {
				oldest = i
			}
		}
		return oldest
	})
	if got := testing.AllocsPerRun(2000, insert); got != 1 {
		t.Fatalf("%v allocations per evicting insert with a VictimFunc set, want 1", got)
	}
	if offered != 256 {
		t.Fatalf("victim fn was offered %d candidates, want all 256", offered)
	}
}

func TestSetCapacityShrinksAndGrows(t *testing.T) {
	tb := New("test", 0, EvictLRU)
	for i := uint64(1); i <= 4; i++ {
		mustInsert(t, tb, float64(i), rule(i, 10, 79+i))
	}
	var evicted []uint64
	tb.OnEvict = func(id uint64) { evicted = append(evicted, id) }
	if n := tb.SetCapacity(5, 2); n != 2 {
		t.Fatalf("SetCapacity evicted %d, want 2", n)
	}
	if tb.Len() != 2 || tb.Capacity() != 2 {
		t.Fatalf("Len=%d Capacity=%d, want 2/2", tb.Len(), tb.Capacity())
	}
	// LRU order: oldest last-hit (= install time here) go first.
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted %v, want [1 2]", evicted)
	}
	// Growing never evicts.
	if n := tb.SetCapacity(6, 10); n != 0 {
		t.Fatalf("grow evicted %d entries", n)
	}
	// Negative capacity: admits nothing, and shrink-to-zero evicts all.
	if n := tb.SetCapacity(7, -1); n != 2 {
		t.Fatalf("SetCapacity(-1) evicted %d, want 2", n)
	}
	if err := tb.Insert(8, rule(9, 10, 99), 0, 0); err == nil {
		t.Fatal("insert succeeded into a negative-capacity table")
	}
	// Zero stays "unlimited".
	tb.SetCapacity(9, 0)
	mustInsert(t, tb, 10, rule(9, 10, 99))
}
