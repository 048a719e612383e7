package tcam

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/workload"
)

// checkIndex verifies the index's structural invariants against the
// table's entry list: every entry sits in exactly one leaf, on the path
// its match selects, with its match packed; the slots add up to Len();
// every leaf is in TCAM order, or in a disjoint table every entry knows
// its index in its leaf; every inner node counts the entries below
// it, holds more than collapseAt of them and has some on each side of its
// bit; and the entry list is a heap
// in eviction order by the keys it was ranked by, none of which has
// overtaken its entry's real key.
func checkIndex(tb *Table) error {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	seen := make(map[*entry]int)
	var walk func(n *node, path []*node) (int, error)
	walk = func(n *node, path []*node) (int, error) {
		if n.mask != 0 {
			if len(n.slots) != 0 {
				return 0, fmt.Errorf("inner node holds %d slots", len(n.slots))
			}
			below := 0
			for _, k := range n.kids {
				c, err := walk(k, append(path, n))
				if err != nil {
					return 0, err
				}
				below += c
			}
			if n.count != below || below <= collapseAt {
				return 0, fmt.Errorf("inner node counts %d entries over %d, want more than %d", n.count, below, collapseAt)
			}
			if n.kids[0].size() == 0 || n.kids[1].size() == 0 {
				return 0, fmt.Errorf("inner node over %d entries tests a bit none of them pins both ways", below)
			}
			return below, nil
		}
		for i, s := range n.slots {
			if s != slotOf(s.e) {
				return 0, fmt.Errorf("rule %d: packed match differs from the entry's", s.e.rule.ID)
			}
			if tb.disjoint && int(s.e.leaf) != i {
				return 0, fmt.Errorf("rule %d at leaf slot %d believes it is at %d", s.e.rule.ID, i, s.e.leaf)
			}
			if !tb.disjoint && i > 0 && !n.slots[i-1].e.rule.Before(s.e.rule) {
				return 0, fmt.Errorf("leaf out of TCAM order at rule %d", s.e.rule.ID)
			}
			at := n
			for j := len(path) - 1; j >= 0; j-- {
				if p := path[j]; p.kids[p.kid(&s.e.rule.Match)] != at {
					return 0, fmt.Errorf("rule %d sits under the wrong child", s.e.rule.ID)
				} else {
					at = p
				}
			}
			seen[s.e]++
		}
		return len(n.slots), nil
	}
	if _, err := walk(tb.root, nil); err != nil {
		return err
	}
	slots := 0
	for _, c := range seen {
		slots += c
	}
	if slots != len(tb.entries) {
		return fmt.Errorf("%d slots for %d entries", slots, len(tb.entries))
	}
	for i := range tb.entries {
		r := &tb.entries[i]
		e := r.e
		if seen[e] != 1 {
			return fmt.Errorf("rule %d is in %d leaves", e.rule.ID, seen[e])
		}
		if tb.byID[e.rule.ID] != e {
			return fmt.Errorf("rule %d missing from byID", e.rule.ID)
		}
		if int(e.pos) != i {
			return fmt.Errorf("rule %d at heap slot %d believes it is at %d", e.rule.ID, i, e.pos)
		}
		if r.lastHit > e.lastHit() || r.packets > e.packets.Load() {
			return fmt.Errorf("rule %d ranked by a key above its own", e.rule.ID)
		}
		if i > 0 && tb.evictsBefore(r, &tb.entries[(i-1)/2]) {
			return fmt.Errorf("rule %d ranks before its heap parent", e.rule.ID)
		}
	}
	return nil
}

// build indexes entries from scratch: the shape the incrementally kept
// tree is measured against.
func build(entries []*entry) *node {
	slots := make([]slot, len(entries))
	for i, e := range entries {
		slots[i] = slotOf(e)
	}
	n := indexed(slots, false)
	return &n
}

// slotsCompared walks the tree as search does and counts the slots a lookup
// of k tests against the key at most (search also skips a leaf whose first
// slot cannot beat the match it already holds), and the leaves it visits.
func slotsCompared(n *node, k flowspace.Key) (slots, leaves int) {
	for n.mask != 0 {
		side := 0
		if k[n.field]&n.mask != 0 {
			side = 1
		}
		s, l := slotsCompared(n.kids[side], k)
		slots, leaves = slots+s, leaves+l
		n = n.kids[2]
	}
	p := k.Pack()
	for i := range n.slots {
		slots++
		if n.slots[i].holds(&p) {
			break
		}
	}
	return slots, leaves + 1
}

// classBenchPolicy is an n-rule ClassBench-style policy, shaped as the
// repository's benchmark shapes its own.
func classBenchPolicy(n int) []flowspace.Rule {
	return workload.ClassBenchLike(workload.ACLConfig{
		Rules: n, MaxDepth: 4, PortRangeFrac: 0.1, DropFrac: 0.1, Seed: 1,
	})
}

// classBench returns a table loaded with classBenchPolicy(n), and the
// policy.
func classBench(tb testing.TB, n int) (*Table, []flowspace.Rule) {
	policy := classBenchPolicy(n)
	t := New("classbench", 0, EvictNone)
	for _, r := range policy {
		if err := t.Insert(0, r, 0, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return t, policy
}

// All-overlapping rules — each pins one distinct bit, so no bit separates
// any two of them — cannot be cut apart. An index that copied wildcard
// rules into both children would double per level (the replicating
// prototype reached 16 GB); this one keeps every rule in one slot.
func TestAllOverlappingRulesStayLinear(t *testing.T) {
	tb := New("overlap", 0, EvictNone)
	var rules []flowspace.Rule
	id := uint64(1)
	for _, f := range []flowspace.FieldID{flowspace.FIPSrc, flowspace.FIPDst, flowspace.FEthSrc, flowspace.FEthDst} {
		for b := uint(0); b < f.Width(); b++ {
			r := flowspace.Rule{ID: id, Priority: int32(id % 7),
				Match: flowspace.MatchAll().With(f, flowspace.Field{Value: 1 << b, Mask: 1 << b})}
			rules = append(rules, r)
			mustInsert(t, tb, 0, r)
			id++
		}
	}
	if err := checkIndex(tb); err != nil {
		t.Fatal(err)
	}
	if tb.root.mask != 0 || len(tb.root.slots) != tb.Len() {
		t.Fatalf("%d rules: root inner=%v with %d slots, want one leaf holding them all",
			tb.Len(), tb.root.mask != 0, len(tb.root.slots))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		k := keyIn(rng, flowspace.MatchAll())
		want, wantOK := flowspace.EvalTable(rules, k)
		if got, ok := tb.Peek(k); ok != wantOK || got.ID != want.ID {
			t.Fatalf("key %v: got %v/%v want %v/%v", k, got, ok, want, wantOK)
		}
	}
}

// lookupCost looks up 20,000 in-policy keys in a 10,000-rule ClassBench
// table, checking every 100th answer against the policy, and returns the
// mean number of slots compared and of leaves visited per lookup.
func lookupCost(t *testing.T) (slots, leaves float64) {
	tb, policy := classBench(t, 10000)
	if err := checkIndex(tb); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const lookups = 20000
	var s, l int
	for i := 0; i < lookups; i++ {
		k := keyIn(rng, policy[rng.Intn(len(policy))].Match)
		ds, dl := slotsCompared(tb.root, k)
		s, l = s+ds, l+dl
		if i%100 == 0 {
			want, _ := flowspace.EvalTable(policy, k)
			if got, ok := tb.Peek(k); !ok || got.ID != want.ID {
				t.Fatalf("key %v: got %v/%v want %v", k, got, ok, want)
			}
		}
	}
	slots, leaves = float64(s)/lookups, float64(l)/lookups
	t.Logf("%d rules: %.1f slots compared and %.1f leaves visited per lookup", tb.Len(), slots, leaves)
	return slots, leaves
}

// Sub-linearity as a count, not a time: over a 10,000-rule ClassBench
// table a lookup compares a small, bounded number of slots against the
// key, where the scan compared thousands.
func TestLookupComparesFewSlots(t *testing.T) {
	if slots, _ := lookupCost(t); slots > 128 {
		t.Fatalf("mean slots compared per lookup = %.1f over 10000 rules, want ≤ 128", slots)
	}
}

// The other half of the leaf's width: a leaf of leafLimit packed slots is
// cheaper to scan than the nodes a narrower one would add are to reach, so
// a lookup over 10,000 ClassBench rules visits at most 32 leaves. With
// leaves of 8 it visits about 57.
func TestLookupVisitsFewLeaves(t *testing.T) {
	if _, leaves := lookupCost(t); leaves > 32 {
		t.Fatalf("mean leaves visited per lookup = %.1f over 10000 rules, want ≤ 32", leaves)
	}
}

// A subtree that removals shrink to collapseAt entries folds back into one
// leaf on the removal path, so a table that shrank does not keep the depth
// its departed entries gave it.
func TestRemovalsRebuildIndex(t *testing.T) {
	tb, policy := classBench(t, 512)
	for _, r := range policy[:508] {
		tb.Delete(r.ID)
		if err := checkIndex(tb); err != nil {
			t.Fatal(err)
		}
	}
	if tb.root.mask != 0 || len(tb.root.slots) != 4 {
		t.Fatalf("%d entries left: root inner=%v with %d slots, want one leaf holding them all",
			tb.Len(), tb.root.mask != 0, len(tb.root.slots))
	}
}

// A disjoint table's entries know their index in their leaf, so a removal
// moves one slot instead of searching for one: that index must stay right
// as leaves fill and split, as removals move slots into holes, and as
// subtrees fold back into one leaf. checkIndex holds every entry to it
// after each write.
func TestDisjointLeafIndexSurvivesSplitAndCollapse(t *testing.T) {
	const n, left = 600, 10
	rng := rand.New(rand.NewSource(13))
	covers := disjointCovers(rng, n)
	tb := NewDisjoint("disjoint", 0, EvictNone)
	for i, j := range rng.Perm(n) {
		mustInsert(t, tb, 0, flowspace.Rule{ID: uint64(j + 1), Priority: int32(j % 3), Match: covers[j]})
		if err := checkIndex(tb); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tb.root.mask == 0 {
		t.Fatalf("%d disjoint covers left the root a leaf: nothing split", n)
	}
	for i, j := range rng.Perm(n)[left:] {
		if i%25 == 0 {
			k := keyIn(rng, covers[rng.Intn(n)])
			want, wantOK := flowspace.EvalTable(tb.Rules(), k)
			if got, ok := tb.Peek(k); ok != wantOK || got.ID != want.ID {
				t.Fatalf("delete %d, key %v: got %v/%v, the scan %v/%v", i, k, got, ok, want, wantOK)
			}
		}
		tb.Delete(uint64(j + 1))
		if err := checkIndex(tb); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if tb.root.mask != 0 || len(tb.root.slots) != left {
		t.Fatalf("%d entries left: root inner=%v with %d slots, want one leaf holding them all",
			tb.Len(), tb.root.mask != 0, len(tb.root.slots))
	}
}

// fullCache returns a full n-entry LRU cache of ClassBench rules under
// never-repeated IDs, and the function that makes its next evicting
// insert — the miss storm's write, as BenchmarkInsertEvict drives it.
func fullCache(tb testing.TB, n int) (*Table, func()) {
	return filled(tb, New("evict", n, EvictLRU), classBenchPolicy(1024))
}

// filled fills t, which must have a capacity, with rules in turn under
// never-repeated IDs, and returns it with the function that makes its next
// evicting insert.
func filled(tb testing.TB, t *Table, rules []flowspace.Rule) (*Table, func()) {
	i := 0
	insert := func() {
		r := rules[i%len(rules)]
		r.ID = 1<<50 + uint64(i) // the rules repeat; their IDs may not
		if err := t.Insert(float64(i), r, 0, 0); err != nil {
			tb.Fatal(err)
		}
		i++
	}
	for i < t.Capacity() {
		insert()
	}
	return t, insert
}

// Eviction's sub-linearity as a count: an evicting insert into a full
// 10,000-entry LRU cache reads the keys of a few dozen entries — the heap
// paths of the victim and the newcomer — where the scan read all 10,000.
func TestEvictionExaminesFewEntries(t *testing.T) {
	const n, inserts = 10000, 10000
	tb, insert := fullCache(t, n)
	before, evictions := tb.examined, tb.Evictions.Load()
	for i := 0; i < inserts; i++ {
		insert()
	}
	if got := tb.Evictions.Load() - evictions; got != inserts {
		t.Fatalf("%d evictions over %d inserts into a full table", got, inserts)
	}
	mean := float64(tb.examined-before) / inserts
	bound := 4 * math.Log2(n)
	t.Logf("%d entries: %.1f examined per evicting insert (bound %.1f)", n, mean, bound)
	if mean > bound {
		t.Fatalf("entries examined per evicting insert = %.1f over %d entries, want ≤ 4·log₂n = %.1f", mean, n, bound)
	}
	if err := checkIndex(tb); err != nil {
		t.Fatal(err)
	}
}

// Steady insert-evict churn on a full cache must leave the index as
// shallow as it found it with no whole-table rebuild to pay for that: the
// root is never replaced, the invariants hold throughout, and a lookup
// compares no more slots than it would against an index built from
// scratch over the same entries.
func TestChurnKeepsIndexShallow(t *testing.T) {
	const n, cycles = 256, 100000
	tb, insert := fullCache(t, n)
	root := tb.root
	policy := classBenchPolicy(1024)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < cycles; i++ {
		insert()
		if i%1000 != 999 {
			continue
		}
		if err := checkIndex(tb); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if tb.root != root {
			t.Fatalf("cycle %d: the index was rebuilt", i)
		}
		entries := make([]*entry, len(tb.entries))
		for j := range tb.entries {
			entries[j] = tb.entries[j].e
		}
		fresh := build(entries)
		kept, rebuilt := 0, 0
		const lookups = 500
		for j := 0; j < lookups; j++ {
			k := keyIn(rng, policy[rng.Intn(len(policy))].Match)
			s, _ := slotsCompared(tb.root, k)
			kept += s
			s, _ = slotsCompared(fresh, k)
			rebuilt += s
			p := k.Pack()
			if got, want := tb.root.search(&k, &p, nil, 0, 0, false), fresh.search(&k, &p, nil, 0, 0, false); got != want {
				t.Fatalf("cycle %d key %v: kept index finds %v, fresh one %v", i, k, got, want)
			}
		}
		if i == cycles-1 {
			t.Logf("after %d cycles: %.1f slots compared per lookup, %.1f on a fresh build",
				cycles, float64(kept)/lookups, float64(rebuilt)/lookups)
		}
		if float64(kept) > 1.25*float64(rebuilt)+lookups {
			t.Fatalf("cycle %d: %.1f slots compared per lookup, %.1f on a fresh build of the same entries",
				i, float64(kept)/lookups, float64(rebuilt)/lookups)
		}
	}
}
