package core

import (
	"slices"
	"sort"

	"difane/internal/topo"
)

// PartitionLoad is the observed miss traffic of one partition.
type PartitionLoad struct {
	Partition int
	Misses    uint64
}

// MeasurePartitionLoad attributes handled misses to partitions by summing
// each partition's replica handlers. Replicas of the same partition serve
// disjoint ingress sets (nearest-replica), so the sum is the partition's
// total miss load.
func (n *Network) MeasurePartitionLoad() []PartitionLoad {
	loads := make([]PartitionLoad, len(n.gen.Assignment.Partitions))
	for i := range loads {
		loads[i].Partition = i
	}
	for at, a := range n.gen.Handlers {
		loads[at.Part].Misses += a.Misses
	}
	return loads
}

// AuthorityMissLoad sums handled misses per authority switch.
func (n *Network) AuthorityMissLoad() map[uint32]uint64 {
	out := make(map[uint32]uint64)
	for at, a := range n.gen.Handlers {
		out[at.Host] += a.Misses
	}
	return out
}

// RebalanceByLoad reassigns partitions to authority switches using the
// miss traffic observed so far instead of rule counts: partitions are
// placed largest-measured-load first onto the authority with the least
// accumulated load. This is the controller's answer to the skew that
// rule-count balancing cannot see — e.g. when nearest-replica redirection
// concentrates traffic on one replica. Cache state survives (cached rules
// are ingress-local and semantically exact regardless of which authority
// serves future misses); only partition rules and authority tables are
// rewritten.
//
// Returns the number of partitions whose primary moved.
func (c *Controller) RebalanceByLoad() int {
	n, running := c.net, c.run.Assignment
	loads := n.MeasurePartitionLoad()
	auths := slices.DeleteFunc(sortedIDs(n.authSt), func(id uint32) bool {
		return !n.Topo.NodeUp(topo.NodeID(id))
	})
	if len(auths) == 0 {
		return 0
	}

	// Order partitions by measured load, heaviest first.
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := loads[order[a]].Misses, loads[order[b]].Misses
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})

	replication := len(running.ReplicasFor(0))
	if replication < 1 {
		replication = 1
	}
	if replication > len(auths) {
		replication = len(auths)
	}

	newAssign := Assignment{
		Partitions: running.Partitions,
		Primary:    make([]uint32, len(loads)),
		Backup:     make([]uint32, len(loads)),
		Replicas:   make([][]uint32, len(loads)),
	}
	accum := make(map[uint32]uint64, len(auths))
	pick := func(exclude map[uint32]bool) uint32 {
		best := uint32(0)
		var bestLoad uint64
		found := false
		for _, id := range auths {
			if exclude[id] {
				continue
			}
			if !found || accum[id] < bestLoad || (accum[id] == bestLoad && id < best) {
				best, bestLoad, found = id, accum[id], true
			}
		}
		return best
	}
	moved := 0
	for _, i := range order {
		taken := map[uint32]bool{}
		hosts := make([]uint32, 0, replication)
		for r := 0; r < replication; r++ {
			h := pick(taken)
			taken[h] = true
			hosts = append(hosts, h)
			// Primary replica absorbs the whole measured load in the
			// accumulator; backups count half, as in rule-count balancing.
			if r == 0 {
				accum[h] += loads[i].Misses + 1 // +1 keeps empty partitions spreading
			} else {
				accum[h] += loads[i].Misses / 2
			}
		}
		newAssign.Primary[i] = hosts[0]
		newAssign.Backup[i] = hosts[0]
		if len(hosts) > 1 {
			newAssign.Backup[i] = hosts[1]
		}
		newAssign.Replicas[i] = hosts
		if running.Primary[i] != hosts[0] {
			moved++
		}
	}
	// From here on, redirects follow the load-balanced primary rather
	// than the nearest replica — the rebalance would otherwise be
	// overridden by proximity routing.
	c.run.PinRouting = true
	c.applyAssignment(newAssign)
	c.logState()
	return moved
}
