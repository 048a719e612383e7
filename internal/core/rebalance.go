package core

import (
	"cmp"
	"slices"

	"difane/internal/flowspace"
	"difane/internal/proto"
)

// partitionLoad returns each running partition's measured traffic: the
// packets its authority-table entries in the running band have answered,
// summed over its replicas. Replicas of one partition serve disjoint
// ingress sets, so the sum is the partition's whole miss load since its
// rules were installed.
func (c *Controller) partitionLoad() []uint64 {
	loads := make([]uint64, len(c.run.Assignment.Partitions))
	for _, sw := range c.sb.Switches() {
		for _, e := range c.sb.Stats(sw, proto.TableAuthority) {
			p := AuthorityEntryPartition(e.Rule.ID)
			if e.Rule.ID&GenerationMask == c.run.Generation && p >= 0 && p < len(loads) {
				loads[p] += e.Packets
			}
		}
	}
	return loads
}

// RebalanceByLoad reassigns partitions to the live authority switches
// using the miss traffic their authority tables have counted instead of
// rule counts: partitions are placed largest-measured-load first onto the
// authority with the least accumulated load. This is the controller's
// answer to the skew that rule-count balancing cannot see — e.g. when
// nearest-replica redirection concentrates traffic on one replica. Cache
// state survives (cached rules are ingress-local and semantically exact
// regardless of which authority serves future misses); only partition
// rules and authority tables are rewritten.
//
// It is not hitless: the running authority rules are withdrawn before the
// new ones are installed and committed, so a redirect in flight meanwhile
// to a host that lost its partition is a hole. Rebalance between traffic
// windows.
//
// Returns the number of partitions whose primary moved.
func (c *Controller) RebalanceByLoad() int {
	running := c.run.Assignment
	loads := c.partitionLoad()
	auths := slices.DeleteFunc(slices.Clone(c.auths), func(id uint32) bool { return !c.sb.Up(id) })
	if len(auths) == 0 {
		return 0
	}

	// Place partitions heaviest measured load first, each replica onto the
	// authority with the least load so far (ties to the lower ID).
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(loads[b], loads[a]) })
	replication := min(max(len(running.ReplicasFor(0)), 1), len(auths))
	next := Assignment{
		Partitions: running.Partitions,
		Primary:    make([]uint32, len(loads)),
		Backup:     make([]uint32, len(loads)),
		Replicas:   make([][]uint32, len(loads)),
	}
	accum := make(map[uint32]uint64, len(auths))
	pick := func(taken []uint32) uint32 {
		best, found := uint32(0), false
		for _, id := range auths {
			if !slices.Contains(taken, id) && (!found || accum[id] < accum[best] || accum[id] == accum[best] && id < best) {
				best, found = id, true
			}
		}
		return best
	}
	moved := 0
	for _, i := range order {
		hosts := make([]uint32, 0, replication)
		for len(hosts) < replication {
			h := pick(hosts)
			// The primary absorbs the whole measured load in the
			// accumulator; backups count half, as in rule-count balancing.
			if len(hosts) == 0 {
				accum[h] += loads[i] + 1 // +1 keeps empty partitions spreading
			} else {
				accum[h] += loads[i] / 2
			}
			hosts = append(hosts, h)
		}
		next.Primary[i] = hosts[0]
		next.Backup[i] = hosts[min(1, len(hosts)-1)]
		next.Replicas[i] = hosts
		if running.Primary[i] != hosts[0] {
			moved++
		}
	}
	// From here on, redirects follow the load-balanced primary rather
	// than the nearest replica — the rebalance would otherwise be
	// overridden by proximity routing.
	c.run.PinRouting = true
	// Tear down the running generation's authority rules. One a consistent
	// update has staged beside it is not this assignment's to remove: once
	// the update commits, its handlers answer from those entries alone.
	var deleted uint64
	for _, sw := range c.sb.Switches() {
		deleted += uint64(len(c.withdraw(sw, proto.TableAuthority, func(r *flowspace.Rule) bool {
			return r.ID&GenerationMask == c.run.Generation
		})))
	}
	c.sb.Note(0, true, deleted)
	c.sb.Note(0, false, c.installAuthorityRules(next))
	c.adopt(next, c.run.Generation, false)
	c.logState()
	return moved
}
