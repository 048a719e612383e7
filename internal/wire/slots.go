package wire

import "math/bits"

// slotIndex resolves a switch ID to its slot in Cluster.nodes: an
// open-addressed table of any set of uint32 IDs, built once and never
// written after, so a lookup takes no lock, allocates nothing and reads no
// node. Its size is a power of two at least twice the switch count.
type slotIndex struct {
	ids   []uint32
	slots []int32 // -1 marks an empty cell
	shift uint    // 32 - log2(len(slots)): the hash's top bits pick the home cell
}

// newSlotIndex indexes ids, which are distinct, by position.
func newSlotIndex(ids []uint32) slotIndex {
	size := 2
	for size < 2*len(ids) {
		size <<= 1
	}
	x := slotIndex{
		ids:   make([]uint32, size),
		slots: make([]int32, size),
		shift: uint(33 - bits.Len(uint(size))),
	}
	for i := range x.slots {
		x.slots[i] = -1
	}
	for slot, id := range ids {
		i := x.home(id)
		for x.slots[i] >= 0 {
			i = (i + 1) & (size - 1)
		}
		x.ids[i], x.slots[i] = id, int32(slot)
	}
	return x
}

// home is the cell id's probe starts at (Fibonacci hashing).
func (x *slotIndex) home(id uint32) int { return int(id * 0x9E3779B1 >> x.shift) }

// slot returns id's slot, or -1 when no switch has that ID. A linear
// probe ends at the ID or at an empty cell; the table is never full.
func (x *slotIndex) slot(id uint32) int32 {
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		if s := x.slots[i]; s < 0 || x.ids[i] == id {
			return s
		}
	}
}

// node returns the switch with ID id, if the cluster has one.
func (c *Cluster) node(id uint32) (*node, bool) {
	if s := c.index.slot(id); s >= 0 {
		return c.nodes[s], true
	}
	return nil, false
}
