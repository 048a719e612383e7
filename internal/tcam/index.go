package tcam

import (
	"math/bits"
	"slices"
	"sort"

	"difane/internal/flowspace"
)

// leafLimit is how many slots a leaf holds before it tries to split.
const leafLimit = 8

// slot is one rule in a leaf. The match is inlined so a leaf scan reads
// contiguous memory; the entry pointer is followed only on a match.
type slot struct {
	match flowspace.Match
	e     *entry
}

// node is one node of the ternary bit-tree. An inner node (mask != 0)
// tests one bit of one field: rules that pin the bit to 0 live under
// kids[0], to 1 under kids[1], and rules that wildcard it under kids[2],
// so every rule sits in exactly one leaf. A leaf holds its slots in TCAM
// order and splits once it holds more than limit of them.
type node struct {
	field flowspace.FieldID
	mask  uint64
	kids  [3]*node
	slots []slot
	limit int
}

// build indexes entries, which must be in TCAM order.
func build(entries []*entry) *node {
	n := &node{limit: leafLimit, slots: make([]slot, len(entries))}
	for i, e := range entries {
		n.slots[i] = slot{match: e.rule.Match, e: e}
	}
	n.split()
	return n
}

// kid returns which child of the inner node n holds a rule matching m.
func (n *node) kid(m *flowspace.Match) int {
	switch fd := &m.Fields[n.field]; {
	case fd.Mask&n.mask == 0:
		return 2
	case fd.Value&n.mask == 0:
		return 0
	}
	return 1
}

// leaf returns the leaf holding (or due to hold) e, and e's position in
// it by TCAM order.
func (n *node) leaf(e *entry) (*node, int) {
	for n.mask != 0 {
		n = n.kids[n.kid(&e.rule.Match)]
	}
	return n, sort.Search(len(n.slots), func(i int) bool { return !n.slots[i].e.rule.Before(e.rule) })
}

func (n *node) insert(e *entry) {
	n, i := n.leaf(e)
	if len(n.slots) == cap(n.slots) {
		// Grow by a few slots, not by doubling: leaves are small and
		// many, and their slack is most of what the index adds to a
		// table's memory.
		grown := make([]slot, len(n.slots), len(n.slots)+max(3, len(n.slots)/4))
		copy(grown, n.slots)
		n.slots = grown
	}
	n.slots = slices.Insert(n.slots, i, slot{match: e.rule.Match, e: e})
	n.split()
}

func (n *node) remove(e *entry) {
	n, i := n.leaf(e)
	n.slots = slices.Delete(n.slots, i, i+1)
}

// split turns an over-full leaf into an inner node and splits its
// children in turn. It tests the bit that minimises max(zero, one) + wild
// — the slots a lookup still has to scan — among bits that one slot pins
// to 0 and another to 1, so each child is strictly smaller and no rule is
// copied. Rules that all overlap offer no such bit; the leaf's limit
// doubles instead.
func (n *node) split() {
	if len(n.slots) <= n.limit {
		return
	}
	var field flowspace.FieldID
	var mask uint64
	best := len(n.slots)
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		var zeros, ones uint64
		for i := range n.slots {
			fd := &n.slots[i].match.Fields[f]
			zeros |= fd.Mask &^ fd.Value
			ones |= fd.Mask & fd.Value
		}
		for cand := zeros & ones; cand != 0; cand &= cand - 1 {
			b := bits.TrailingZeros64(cand)
			var pinned, one uint64
			for i := range n.slots {
				fd := &n.slots[i].match.Fields[f]
				pinned += fd.Mask >> b & 1
				one += fd.Mask & fd.Value >> b & 1
			}
			if cost := len(n.slots) - int(min(pinned-one, one)); cost < best {
				best, field, mask = cost, f, 1<<b
			}
		}
	}
	if mask == 0 {
		for n.limit < len(n.slots) {
			n.limit *= 2
		}
		return
	}
	slots := n.slots
	n.field, n.mask, n.slots = field, mask, nil
	var count [3]int
	for i := range slots {
		count[n.kid(&slots[i].match)]++
	}
	for i := range n.kids {
		n.kids[i] = &node{limit: leafLimit}
		if count[i] > 0 {
			n.kids[i].slots = make([]slot, 0, count[i])
		}
	}
	for i := range slots {
		k := n.kids[n.kid(&slots[i].match)]
		k.slots = append(k.slots, slots[i])
	}
	for _, k := range n.kids {
		k.split()
	}
}

// find returns the first entry in TCAM order matching k among best and
// the subtree's rules: at each inner node it searches the child the key's
// bit selects, then carries on down the wildcard child.
func (n *node) find(k *flowspace.Key, best *entry) *entry {
	for n.mask != 0 {
		side := 0
		if k[n.field]&n.mask != 0 {
			side = 1
		}
		best = n.kids[side].find(k, best)
		n = n.kids[2]
	}
	if best != nil && len(n.slots) > 0 && !n.slots[0].e.rule.Before(best.rule) {
		return best // the leaf is in TCAM order: nothing in it beats best
	}
	for i := range n.slots {
		if n.slots[i].match.Matches(*k) {
			if e := n.slots[i].e; best == nil || e.rule.Before(best.rule) {
				return e
			}
			break
		}
	}
	return best
}
