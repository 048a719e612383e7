package core

import "difane/internal/topo"

// LinkKey identifies one direction of a link.
type LinkKey struct {
	From, To uint32
}

// LinkLoads accumulates packets carried per directed link when the
// network runs in hop-by-hop mode.
type LinkLoads map[LinkKey]uint64

// add records one packet traversing every link of the path.
func (l LinkLoads) add(path []topo.NodeID) {
	for i := 1; i < len(path); i++ {
		l[LinkKey{From: uint32(path[i-1]), To: uint32(path[i])}]++
	}
}

// Max returns the heaviest directed-link load.
func (l LinkLoads) Max() uint64 {
	var max uint64
	for _, v := range l {
		if v > max {
			max = v
		}
	}
	return max
}

// Total returns the total link traversals.
func (l LinkLoads) Total() uint64 {
	var t uint64
	for _, v := range l {
		t += v
	}
	return t
}

// Concentration is max load divided by mean load over loaded links — 1.0
// means perfectly even, large values mean hot links.
func (l LinkLoads) Concentration() float64 {
	if len(l) == 0 {
		return 0
	}
	mean := float64(l.Total()) / float64(len(l))
	if mean == 0 {
		return 0
	}
	return float64(l.Max()) / mean
}

// sendAlong walks the packet hop by hop along the shortest path from a to
// b, counting link loads, and runs deliver at arrival. Falls back to the
// end-to-end latency when hop-by-hop accounting is disabled. Returns
// false when no path exists.
func (n *Network) sendAlong(a, b uint32, deliver func()) bool {
	if !n.cfg.HopByHop {
		d, ok := n.Topo.Dist(topo.NodeID(a), topo.NodeID(b))
		if !ok {
			return false
		}
		n.Eng.At(n.Eng.Now()+d, deliver)
		return true
	}
	path := n.Topo.Path(topo.NodeID(a), topo.NodeID(b))
	if path == nil {
		return false
	}
	n.LinkLoads.add(path)
	d, _ := n.Topo.Dist(topo.NodeID(a), topo.NodeID(b))
	n.Eng.At(n.Eng.Now()+d, deliver)
	return true
}
