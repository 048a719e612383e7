package tcam

import (
	"fmt"
	"math/rand"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/workload"
)

// checkIndex verifies the index's structural invariants against the
// table's entry list: every entry sits in exactly one leaf, on the path
// its match selects, with its match inlined; the slots add up to Len();
// and every leaf is in TCAM order.
func checkIndex(tb *Table) error {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	seen := make(map[*entry]int)
	var walk func(n *node, path []*node) error
	walk = func(n *node, path []*node) error {
		if n.mask != 0 {
			if len(n.slots) != 0 {
				return fmt.Errorf("inner node holds %d slots", len(n.slots))
			}
			for _, k := range n.kids {
				if err := walk(k, append(path, n)); err != nil {
					return err
				}
			}
			return nil
		}
		for i, s := range n.slots {
			if s.match != s.e.rule.Match {
				return fmt.Errorf("rule %d: inlined match differs from the entry's", s.e.rule.ID)
			}
			if i > 0 && !n.slots[i-1].e.rule.Before(s.e.rule) {
				return fmt.Errorf("leaf out of TCAM order at rule %d", s.e.rule.ID)
			}
			at := n
			for j := len(path) - 1; j >= 0; j-- {
				if p := path[j]; p.kids[p.kid(&s.match)] != at {
					return fmt.Errorf("rule %d sits under the wrong child", s.e.rule.ID)
				} else {
					at = p
				}
			}
			seen[s.e]++
		}
		return nil
	}
	if err := walk(tb.root, nil); err != nil {
		return err
	}
	slots := 0
	for _, c := range seen {
		slots += c
	}
	if slots != len(tb.entries) {
		return fmt.Errorf("%d slots for %d entries", slots, len(tb.entries))
	}
	for _, e := range tb.entries {
		if seen[e] != 1 {
			return fmt.Errorf("rule %d is in %d leaves", e.rule.ID, seen[e])
		}
		if tb.byID[e.rule.ID] != e {
			return fmt.Errorf("rule %d missing from byID", e.rule.ID)
		}
	}
	return nil
}

// slotsCompared walks the tree as find does and counts the slots a lookup
// of k tests against the key at most (find also skips a leaf whose first
// slot cannot beat the match it already holds).
func slotsCompared(n *node, k flowspace.Key) int {
	c := 0
	for n.mask != 0 {
		side := 0
		if k[n.field]&n.mask != 0 {
			side = 1
		}
		c += slotsCompared(n.kids[side], k)
		n = n.kids[2]
	}
	for i := range n.slots {
		c++
		if n.slots[i].match.Matches(k) {
			break
		}
	}
	return c
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

// Sub-linearity as a count, not a time: over a 10,000-rule ClassBench
// table a lookup compares a small, bounded number of slots against the
// key, where the scan compared thousands.
func TestLookupComparesFewSlots(t *testing.T) {
	tb, policy := classBench(t, 10000)
	if err := checkIndex(tb); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const lookups = 20000
	total := 0
	for i := 0; i < lookups; i++ {
		k := keyIn(rng, policy[rng.Intn(len(policy))].Match)
		total += slotsCompared(tb.root, k)
		if i%100 == 0 {
			want, _ := flowspace.EvalTable(policy, k)
			if got, ok := tb.Peek(k); !ok || got.ID != want.ID {
				t.Fatalf("key %v: got %v/%v want %v", k, got, ok, want)
			}
		}
	}
	mean := float64(total) / lookups
	t.Logf("%d rules: %.1f slots compared per lookup", tb.Len(), mean)
	if mean > 128 {
		t.Fatalf("mean slots compared per lookup = %.1f over %d rules, want ≤ 128", mean, tb.Len())
	}
}

// The index is rebuilt once as many entries have gone as remain, so a
// table that shrank does not keep the depth its departed entries gave it.
func TestRemovalsRebuildIndex(t *testing.T) {
	tb, policy := classBench(t, 512)
	for _, r := range policy[:508] {
		tb.Delete(r.ID)
		if err := checkIndex(tb); err != nil {
			t.Fatal(err)
		}
	}
	if tb.root.mask != 0 {
		t.Fatalf("%d entries left but the root is still an inner node", tb.Len())
	}
}
