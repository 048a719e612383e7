package tcam

import (
	"math/bits"
	"slices"
	"sort"

	"difane/internal/flowspace"
)

// leafLimit is how many slots a leaf holds before it tries to split, and
// collapseAt how few an inner node's subtree holds before it folds back
// into one leaf. The gap between them is hysteresis: a subtree whose size
// hovers at the limit under insert-evict churn neither splits nor folds on
// every write.
const (
	leafLimit  = 32
	collapseAt = leafLimit / 2
)

// slot is one rule in a leaf: its match packed, so a leaf scan reads 72
// contiguous bytes a rule and tests one with four XOR-AND-ORs; the entry
// pointer is followed only on a match.
type slot struct {
	v, m flowspace.Packed
	e    *entry
}

// slotOf returns e's slot, its match's values cut to its mask.
func slotOf(e *entry) slot {
	p := e.rule.Match.Pack()
	return slot{v: p[0], m: p[1], e: e}
}

// holds reports whether the slot's match holds for the packed key k, as
// Match.Holds does for the key it was packed from.
// Most slots fail on word 0, the IPs, so the test leaves there when it can.
func (s *slot) holds(k *flowspace.Packed) bool {
	if (k[0]^s.v[0])&s.m[0] != 0 {
		return false
	}
	return (k[1]^s.v[1])&s.m[1]|(k[2]^s.v[2])&s.m[2]|(k[3]^s.v[3])&s.m[3] == 0
}

// node is one node of the ternary bit-tree. An inner node (mask != 0)
// tests one bit of one field: rules that pin the bit to 0 live under
// kids[0], to 1 under kids[1], and rules that wildcard it under kids[2],
// so every rule sits in exactly one leaf. A leaf holds its slots in TCAM
// order (a disjoint tree's in none) and splits past limit; an inner node
// counts the entries below it, so a removal sees on its way down when a
// subtree has shrunk to a leaf's worth.
type node struct {
	field flowspace.FieldID
	mask  uint64
	kids  [3]*node
	count int
	slots []slot
	limit int
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

// position returns where e sits, or belongs, among slots by TCAM order.
func position(slots []slot, e *entry) int {
	return sort.Search(len(slots), func(i int) bool { return !slots[i].e.rule.Precedes(&e.rule) })
}

func (n *node) insert(e *entry, disjoint bool) {
	for n.mask != 0 {
		n.count++
		n = n.kids[n.kid(&e.rule.Match)]
	}
	i := len(n.slots)
	if !disjoint {
		i = position(n.slots, e)
	}
	if len(n.slots) == cap(n.slots) {
		// Grow by a few slots, not by doubling: leaves are small and
		// many, and their slack is most of what the index adds to a
		// table's memory.
		grown := make([]slot, len(n.slots), len(n.slots)+max(3, len(n.slots)/4))
		copy(grown, n.slots)
		n.slots = grown
	}
	n.slots = slices.Insert(n.slots, i, slotOf(e))
	e.leaf = int32(i)
	n.split()
}

// remove takes e out of its leaf — unless, on the way down, its departure
// leaves an inner node with collapseAt entries or with nothing on e's side
// of its bit, in which case the node no longer cuts anything and its
// subtree is indexed again without e: it folds into a leaf, or splits on
// bits that separate the entries it holds now.
func (n *node) remove(e *entry, disjoint bool) {
	for n.mask != 0 {
		n.count--
		k := n.kid(&e.rule.Match)
		if n.count <= collapseAt || k != 2 && n.kids[k].size() == 1 {
			*n = indexed(n.gather(make([]slot, 0, n.count), e), disjoint)
			return
		}
		n = n.kids[k]
	}
	if disjoint { // the leaf's last slot fills e's, which e.leaf names
		last := len(n.slots) - 1
		n.slots[e.leaf] = n.slots[last]
		n.slots[e.leaf].e.leaf = e.leaf
		n.slots[last] = slot{}
		n.slots = n.slots[:last]
		return
	}
	i := position(n.slots, e)
	n.slots = slices.Delete(n.slots, i, i+1)
}

// indexed returns a tree over slots, built from scratch: one leaf, in TCAM
// order unless the tree is disjoint, split as far as it goes.
func indexed(slots []slot, disjoint bool) node {
	if !disjoint {
		slices.SortFunc(slots, func(a, b slot) int { return tcamOrder(a.e, b.e) })
	}
	n := node{limit: leafLimit, slots: slots}
	n.split()
	return n
}

// size returns how many entries the subtree holds.
func (n *node) size() int {
	if n.mask != 0 {
		return n.count
	}
	return len(n.slots)
}

// gather appends the subtree's slots, except gone's, to into, stamping
// each entry with its index there.
func (n *node) gather(into []slot, gone *entry) []slot {
	if n.mask != 0 {
		for _, k := range n.kids {
			into = k.gather(into, gone)
		}
		return into
	}
	for i := range n.slots {
		if n.slots[i].e != gone {
			n.slots[i].e.leaf = int32(len(into))
			into = append(into, n.slots[i])
		}
	}
	return into
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
			fd := &n.slots[i].e.rule.Match.Fields[f]
			zeros |= fd.Mask &^ fd.Value
			ones |= fd.Mask & fd.Value
		}
		for cand := zeros & ones; cand != 0; cand &= cand - 1 {
			b := bits.TrailingZeros64(cand)
			var pinned, one uint64
			for i := range n.slots {
				fd := &n.slots[i].e.rule.Match.Fields[f]
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
	n.field, n.mask, n.count, n.slots = field, mask, len(slots), nil
	var count [3]int
	for i := range slots {
		count[n.kid(&slots[i].e.rule.Match)]++
	}
	// One allocation for the three children and one for their slots, each
	// child's share cut to its size so a sibling's append cannot reach it.
	kids, shared := new([3]node), make([]slot, len(slots))
	for i := range n.kids {
		n.kids[i] = &kids[i]
		kids[i].limit = leafLimit
		kids[i].slots, shared = shared[:0:count[i]], shared[count[i]:]
	}
	for i := range slots {
		k := n.kids[n.kid(&slots[i].e.rule.Match)]
		slots[i].e.leaf = int32(len(k.slots))
		k.slots = append(k.slots, slots[i])
	}
	for _, k := range n.kids {
		k.split()
	}
}

// search returns the first entry in TCAM order matching k, packed as p,
// among the rules below n whose ID reads band under bandMask (a zero mask
// takes every rule), best being the first match found so far: at each
// inner node it searches the child the key's bit selects,
// then carries on down the wildcard child. In a disjoint tree any match
// is the answer, so the walk ends at the first. Compares go through
// pointers: by value, each order test copies two 200-byte Rules.
func (n *node) search(k *flowspace.Key, p *flowspace.Packed, best *entry, bandMask, band uint64, disjoint bool) *entry {
	for n.mask != 0 {
		side := 0
		if k[n.field]&n.mask != 0 {
			side = 1
		}
		if best = n.kids[side].search(k, p, best, bandMask, band, disjoint); best != nil && disjoint {
			return best
		}
		n = n.kids[2]
	}
	if best != nil && len(n.slots) > 0 && !n.slots[0].e.rule.Precedes(&best.rule) {
		return best // the leaf is in TCAM order: nothing in it beats best
	}
	for i := range n.slots {
		if e := n.slots[i].e; n.slots[i].holds(p) && e.rule.ID&bandMask == band {
			if best == nil || e.rule.Precedes(&best.rule) {
				return e
			}
			break
		}
	}
	return best
}
