package core

import (
	"slices"

	"difane/internal/flowspace"
	"difane/internal/journal"
	"difane/internal/proto"
	"difane/internal/tcam"
	"difane/internal/topo"
)

// Controller is DIFANE's (deliberately thin) central controller: it owns
// the policy, runs the partitioning algorithm, distributes rules, and
// reacts to network dynamics. It never sits on the data path.
type Controller struct {
	net *Network
	// FailoverDelay models detection + rule-withdrawal time after an
	// authority switch fails (seconds).
	FailoverDelay float64
	// PolicyPushDelay models distribution time for a policy update.
	PolicyPushDelay float64

	// PolicyVersion counts applied policy updates.
	PolicyVersion int

	// Epoch is the controller's fencing token: it increments on every
	// controller (re)start, never within a controller's lifetime. Installs
	// stamped with an older epoch are rejected by fenced switches, so a
	// crashed controller's stragglers cannot clobber its successor's state.
	Epoch uint64

	// gen counts staged policy generations. Unlike PolicyVersion (which
	// increments when an update commits) it increments when an update is
	// *scheduled*, so two consistent updates in flight at once stage
	// disjoint generation bands instead of colliding.
	gen uint64

	// jour, when set, records every committed state change; JournalErr
	// holds the most recent append failure (appends happen inside
	// scheduled commit callbacks, which cannot return errors).
	jour       *journal.Journal
	JournalErr error
}

// NewController attaches a controller to a network.
func NewController(n *Network) *Controller {
	return &Controller{net: n, FailoverDelay: 0.2, PolicyPushDelay: 0.05, Epoch: 1}
}

// Network returns the managed network.
func (c *Controller) Network() *Network { return c.net }

// OnAuthorityFailure schedules the failover: after FailoverDelay the
// primary partition rules pointing at the failed switch are withdrawn from
// every switch, exposing the pre-installed backup rules. Returns the time
// at which the data plane converges.
func (c *Controller) OnAuthorityFailure(failed uint32) float64 {
	at := c.net.Eng.Now() + c.FailoverDelay
	c.net.Eng.At(at, func() {
		c.net.PromoteBackups(failed)
	})
	return at
}

// UpdatePolicy replaces the global policy: recompute partitions on the
// same authority set, push the new authority and partition rules after
// PolicyPushDelay, and invalidate all caches (stale cache rules would
// otherwise serve the old policy until timeout). Returns the convergence
// time.
func (c *Controller) UpdatePolicy(policy []flowspace.Rule) (float64, error) {
	parts := BuildPartitions(policy, c.net.cfg.Partition)
	assign, err := AssignWithReplication(parts, sortedIDs(c.net.authSt), c.net.cfg.Replication)
	if err != nil {
		return 0, err
	}
	at := c.net.Eng.Now() + c.PolicyPushDelay
	c.gen++
	generation := c.gen << 32
	c.net.Eng.At(at, func() {
		n := c.net
		installs, deletes := n.M.PolicyRuleInstalls, n.M.PolicyRuleDeletes
		n.reinstall(policy, assign)
		n.noteMods(generation, false, n.M.PolicyRuleInstalls-installs)
		n.noteMods(generation, true, n.M.PolicyRuleDeletes-deletes)
		c.PolicyVersion++
		c.logState()
	})
	return at, nil
}

// UpdatePolicyConsistent performs a make-before-break policy update: the
// new partitions' authority rules are installed alongside the old ones
// first, then the partition rules are switched and caches invalidated in
// a second step, and finally the old authority rules are removed. Unlike
// UpdatePolicy, there is no window in which a redirected packet can reach
// an authority switch that lacks rules for it — the price is transiently
// doubled authority TCAM occupancy.
//
// Returns (switchAt, cleanupAt): when the data plane starts following the
// new policy, and when the old rules are gone.
func (c *Controller) UpdatePolicyConsistent(policy []flowspace.Rule) (float64, float64, error) {
	n := c.net
	// A no-op update — the offered policy is semantically identical to the
	// running one — must not churn installed rules or invalidate caches:
	// redirected packets would re-derive the exact same cache rules. Only
	// the version advances, at the usual commit time.
	if PoliciesEqual(n.Policy, policy) {
		switchAt := n.Eng.Now() + c.PolicyPushDelay
		cleanupAt := switchAt + c.PolicyPushDelay
		n.Eng.At(switchAt, func() {
			c.PolicyVersion++
			c.logState()
		})
		return switchAt, cleanupAt, nil
	}
	parts := BuildPartitions(policy, c.net.cfg.Partition)
	assign, err := AssignWithReplication(parts, sortedIDs(c.net.authSt), c.net.cfg.Replication)
	if err != nil {
		return 0, 0, err
	}
	// Phase 1: push the new authority rules (re-keyed so they coexist with
	// the old generation) at t+push. The generation band comes from a
	// counter bumped at scheduling time, so overlapping consistent updates
	// stage disjoint bands instead of colliding on PolicyVersion+1.
	installAt := n.Eng.Now() + c.PolicyPushDelay
	c.gen++
	generation := c.gen << 32
	staged := stageAssignment(assign, generation)
	n.Eng.At(installAt, func() {
		n.noteMods(generation, false, n.installAuthorityRules(staged))
	})
	// Phase 2: atomically switch partition rules + handlers + caches.
	switchAt := installAt + c.PolicyPushDelay
	n.Eng.At(switchAt, func() {
		n.Policy = append([]flowspace.Rule(nil), policy...)
		n.adopt(staged)
		for _, sw := range n.Switches {
			sw.ClearCache()
		}
		c.PolicyVersion++
		c.logState()
	})
	// Phase 3: garbage-collect the previous generation's authority rules.
	cleanupAt := switchAt + c.PolicyPushDelay
	n.Eng.At(cleanupAt, func() {
		var removed uint64
		for _, sw := range n.Switches {
			removed += uint64(sw.Table(proto.TableAuthority).DeleteWhere(func(e tcam.Entry) bool {
				return AuthorityEntryRuleID(e.Rule.ID) < generation
			}))
		}
		n.M.PolicyRuleDeletes += removed
		n.noteMods(generation, true, removed)
	})
	return switchAt, cleanupAt, nil
}

// PoliciesEqual reports whether two rule lists are semantically identical:
// the same rules (by ID, priority, match, and action) regardless of slice
// order.
func PoliciesEqual(a, b []flowspace.Rule) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]flowspace.Rule(nil), a...)
	bs := append([]flowspace.Rule(nil), b...)
	flowspace.SortRules(as)
	flowspace.SortRules(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// stageAssignment re-keys every clipped rule ID into a generation band so
// two policy generations can coexist in one authority TCAM. Priorities are
// untouched: a miss is answered from that shared TCAM, but by a lookup that
// sees the running generation's band alone (authorityHandle), so a staged
// rule answers nothing however its priority compares, and the old and new
// generations only ever serve disjoint time windows (the partition-rule
// switch, which also moves the band, is the commit point).
func stageAssignment(a Assignment, generation uint64) Assignment {
	out := a
	out.Partitions = make([]Partition, len(a.Partitions))
	for i, p := range a.Partitions {
		rules := make([]flowspace.Rule, len(p.Rules))
		for j, r := range p.Rules {
			r.ID = generation | (r.ID & 0xFFFFFFFF)
			rules[j] = r
		}
		out.Partitions[i] = Partition{Region: p.Region, Rules: rules}
	}
	return out
}

// OnTopologyChange re-derives every switch's nearest-replica partition
// rules after link or node state changed (a failed link can make a
// different replica closest, or the previous target unreachable). The
// refresh lands after FailoverDelay, modeling detection + push. Returns
// the convergence time.
func (c *Controller) OnTopologyChange() float64 {
	at := c.net.Eng.Now() + c.FailoverDelay
	c.net.Eng.At(at, func() {
		c.net.installPartitionRules()
	})
	return at
}

// InvalidateHost removes cache rules whose match could apply to the given
// host address (source or destination) from every switch — the targeted
// invalidation DIFANE uses for host mobility. Returns entries removed.
func (c *Controller) InvalidateHost(ip uint32) int {
	total := 0
	for _, sw := range c.net.Switches {
		tb := sw.Table(proto.TableCache)
		total += tb.DeleteWhere(func(e tcam.Entry) bool {
			srcHit := e.Rule.Match.Fields[flowspace.FIPSrc].Matches(uint64(ip))
			dstHit := e.Rule.Match.Fields[flowspace.FIPDst].Matches(uint64(ip))
			return srcHit || dstHit
		})
	}
	return total
}

// reinstall atomically swaps the network onto a new policy + assignment.
func (n *Network) reinstall(policy []flowspace.Rule, assign Assignment) {
	n.Policy = append([]flowspace.Rule(nil), policy...)
	n.Assignment = assign
	everything := func(tcam.Entry) bool { return true }
	for _, sw := range n.Switches {
		// Drop all derived state: caches, authority rules, partition rules.
		sw.ClearCache()
		n.M.PolicyRuleDeletes += uint64(sw.Table(proto.TableAuthority).DeleteWhere(everything))
		sw.Table(proto.TablePartition).DeleteWhere(everything)
	}
	n.installAssignment()
}

// sortedIDs returns the keys of a map by switch ID in ascending order:
// what every walk whose order shows in the result (FlowMod order, minted
// IDs, tie-breaks) iterates instead of the map.
func sortedIDs[V any](m map[uint32]V) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// PlaceAuthorities picks k authority switches spread over the topology
// using a greedy farthest-point heuristic seeded at the lowest node ID —
// the placement knob the stretch experiment sweeps.
func PlaceAuthorities(g *topo.Graph, k int) []uint32 {
	nodes := g.Nodes()
	if len(nodes) == 0 || k <= 0 {
		return nil
	}
	if k > len(nodes) {
		k = len(nodes)
	}
	chosen := []topo.NodeID{nodes[0]}
	for len(chosen) < k {
		var best topo.NodeID
		bestDist := -1.0
		for _, cand := range nodes {
			already := false
			for _, c := range chosen {
				if c == cand {
					already = true
					break
				}
			}
			if already {
				continue
			}
			// Distance to the nearest chosen authority.
			nearest := -1.0
			for _, c := range chosen {
				if d, ok := g.Dist(cand, c); ok {
					if nearest < 0 || d < nearest {
						nearest = d
					}
				}
			}
			if nearest > bestDist {
				best, bestDist = cand, nearest
			}
		}
		if bestDist < 0 {
			break
		}
		chosen = append(chosen, best)
	}
	out := make([]uint32, len(chosen))
	for i, c := range chosen {
		out[i] = uint32(c)
	}
	return out
}
