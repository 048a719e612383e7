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
// reacts to network dynamics. It never sits on the data path, and it
// reaches the switches only through a Southbound, so the one controller
// drives the simulator on virtual time and a wire cluster on real time.
type Controller struct {
	sb Southbound
	// topo, when set, routes each ingress to its nearest replica (unless
	// run.PinRouting). Nil on a deployment without a topology (wire).
	topo *topo.Graph
	// auths are the authority switches; partition and place turn a policy
	// into an assignment: partitions, and the authorities that host each.
	auths     []uint32
	partition PartitionConfig
	place     func([]Partition, []uint32) (Assignment, error)
	// run is what the deployment was last committed to.
	run Running

	// FailoverDelay models detection + rule-withdrawal time after an
	// authority switch fails (seconds).
	FailoverDelay float64
	// PolicyPushDelay models distribution time for a policy update.
	PolicyPushDelay float64

	// PolicyVersion counts applied policy updates.
	PolicyVersion int

	// Epoch is the controller's fencing token, stamped on every FlowMod it
	// sends: it is set once per incarnation (Attach, Resume) and never
	// changes after. Installs stamped with an older epoch are rejected by
	// fenced switches, so a deposed controller's stragglers cannot clobber
	// its successor's state.
	Epoch uint64

	// gen counts staged policy generations. Unlike PolicyVersion (which
	// increments when an update commits) it increments when an update is
	// *scheduled*, so two consistent updates in flight at once stage
	// disjoint generation bands instead of colliding.
	gen uint64

	// jour, when set, seals the state at every commit; JournalErr holds
	// the most recent seal failure (seals happen inside scheduled commit
	// callbacks, which cannot return errors).
	jour       *journal.Journal
	JournalErr error
}

// Attach returns a controller for the deployment behind sb, running
// nothing yet (Boot installs a policy, Resume takes one over); place
// assigns partitions to the authority switches auths. With a topology g,
// its partition rules redirect to each ingress's nearest replica first;
// without one (nil), to each partition's primary, then its backup.
func Attach(sb Southbound, g *topo.Graph, auths []uint32, partition PartitionConfig, place func([]Partition, []uint32) (Assignment, error)) *Controller {
	return &Controller{sb: sb, topo: g, auths: auths, partition: partition, place: place,
		FailoverDelay: 0.2, PolicyPushDelay: 0.05, Epoch: 1}
}

// NewController attaches a controller to a simulated network, taking over
// what it runs.
func NewController(n *Network) *Controller {
	c := Attach(simSouthbound{n}, n.Topo, sortedIDs(n.authSt), n.cfg.Partition, func(parts []Partition, auths []uint32) (Assignment, error) {
		return AssignWithReplication(parts, auths, n.cfg.Replication)
	})
	if n.gen != nil {
		c.run = n.gen.Running
	}
	return c
}

// assign partitions policy and places the partitions.
func (c *Controller) assign(policy []flowspace.Rule) (Assignment, error) {
	return c.place(BuildPartitions(policy, c.partition), c.auths)
}

// Boot installs policy on switches that hold none yet: the authority rules
// at every replica, then the commit and the partition rules that redirect
// to them.
func (c *Controller) Boot(policy []flowspace.Rule) error {
	a, err := c.assign(policy)
	if err != nil {
		return err
	}
	c.run.Policy = append([]flowspace.Rule(nil), policy...)
	c.sb.Note(0, false, c.installAuthorityRules(a))
	c.adopt(a, 0, false)
	return nil
}

// phase runs fn at time t, once every switch has applied what the phases
// before it sent: the push delay orders phases on virtual time, a barrier
// per switch on real time.
func (c *Controller) phase(t float64, fn func()) {
	c.sb.At(t, func() {
		for _, sw := range c.sb.Switches() {
			_ = c.sb.Barrier(sw) // an unreachable switch is the failure detector's to handle
		}
		fn()
	})
}

// UpdatePolicy replaces the global policy: recompute partitions on the
// same authority set, push the new authority and partition rules after
// PolicyPushDelay, and invalidate all caches (stale cache rules would
// otherwise serve the old policy until timeout). Returns the convergence
// time.
func (c *Controller) UpdatePolicy(policy []flowspace.Rule) (float64, error) {
	a, err := c.assign(policy)
	if err != nil {
		return 0, err
	}
	at := c.sb.Now() + c.PolicyPushDelay
	c.gen++
	generation := c.gen << 32
	c.phase(at, func() {
		var deleted uint64
		for _, sw := range c.sb.Switches() {
			deleted += uint64(len(c.withdraw(sw, proto.TableAuthority, everything)))
		}
		c.sb.Note(generation, true, deleted)
		c.sb.Note(generation, false, c.installAuthorityRules(a))
		c.run.Policy = append([]flowspace.Rule(nil), policy...)
		c.adopt(a, 0, true)
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
// new policy, and when the old rules are gone. On real time both have
// passed when it returns.
func (c *Controller) UpdatePolicyConsistent(policy []flowspace.Rule) (float64, float64, error) {
	// A no-op update — the offered policy is semantically identical to the
	// running one — must not churn installed rules or invalidate caches:
	// redirected packets would re-derive the exact same cache rules. Only
	// the version advances, at the usual commit time.
	if PoliciesEqual(c.run.Policy, policy) {
		switchAt := c.sb.Now() + c.PolicyPushDelay
		cleanupAt := switchAt + c.PolicyPushDelay
		c.sb.At(switchAt, func() {
			c.PolicyVersion++
			c.logState()
		})
		return switchAt, cleanupAt, nil
	}
	a, err := c.assign(policy)
	if err != nil {
		return 0, 0, err
	}
	// Phase 1: push the new authority rules (re-keyed so they coexist with
	// the old generation) at t+push. The generation band comes from a
	// counter bumped at scheduling time, so overlapping consistent updates
	// stage disjoint bands instead of colliding on PolicyVersion+1.
	installAt := c.sb.Now() + c.PolicyPushDelay
	c.gen++
	generation := c.gen << 32
	staged := stageAssignment(a, generation)
	c.phase(installAt, func() {
		c.sb.Note(generation, false, c.installAuthorityRules(staged))
	})
	// Phase 2: atomically switch partition rules + handlers + caches. The
	// commit is journaled before it is made, so a southbound that ships the
	// journal (wire HA) can ship it before the data plane moves.
	switchAt := installAt + c.PolicyPushDelay
	c.phase(switchAt, func() {
		c.run.Policy = append([]flowspace.Rule(nil), policy...)
		c.run.Assignment, c.run.Generation = staged, generation
		c.PolicyVersion++
		c.logState()
		c.adopt(staged, generation, true)
	})
	// Phase 3: garbage-collect the previous generation's authority rules.
	cleanupAt := switchAt + c.PolicyPushDelay
	c.phase(cleanupAt, func() {
		var removed uint64
		for _, sw := range c.sb.Switches() {
			removed += uint64(len(c.withdraw(sw, proto.TableAuthority, func(r *flowspace.Rule) bool {
				return AuthorityEntryRuleID(r.ID) < generation
			})))
		}
		c.sb.Note(generation, true, removed)
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
// sees the running generation's band alone (Generation.Answer), so a staged
// rule answers nothing however its priority compares, and the old and new
// generations only ever serve disjoint time windows (the partition-rule
// switch, which also moves the band, is the commit point).
func stageAssignment(a Assignment, generation uint64) Assignment {
	out := a
	out.Partitions = make([]Partition, len(a.Partitions))
	for i, p := range a.Partitions {
		rules := make([]flowspace.Rule, len(p.Rules))
		copy(rules, p.Rules)
		out.Partitions[i] = Partition{Region: p.Region, Rules: rules}
	}
	keyIntoBand(out.Partitions, generation)
	return out
}

// keyIntoBand is stageAssignment's re-key, in place, for partitions no
// running generation shares (ReadState's fresh rebuild).
func keyIntoBand(parts []Partition, generation uint64) {
	for _, p := range parts {
		for j := range p.Rules {
			p.Rules[j].ID = generation | p.Rules[j].ID&0xFFFFFFFF
		}
	}
}

// OnTopologyChange re-derives the partition table of every switch that is
// up (SyncRoutes) after link or node state changed: a failed link can make
// a different replica closest, a failed authority takes its redirects with
// it, and a revived one gets them back. The refresh lands after
// FailoverDelay, modeling detection + push. Returns the convergence time.
func (c *Controller) OnTopologyChange() float64 {
	at := c.sb.Now() + c.FailoverDelay
	c.phase(at, func() { c.SyncRoutes() })
	return at
}

// SyncRoutes brings the partition table of every switch that is up to its
// routes (Running.Routes), which redirect to no switch that is down: the
// backup rule, pre-installed at lower priority, takes over from a dead
// primary, DIFANE's failover. A switch that is down keeps its table until
// a sync after it is up again. It returns how many distinct partition
// rules it withdrew.
func (c *Controller) SyncRoutes() int {
	gone := make(map[uint64]bool)
	for _, sw := range c.sb.Switches() {
		if !c.sb.Up(sw) {
			continue
		}
		_, ids := c.sync(sw, proto.TablePartition, c.run.Routes(sw, c.topo, c.sb.Up))
		for _, id := range ids {
			gone[id] = true
		}
	}
	return len(gone)
}

// InvalidateHost withdraws the cache rules whose match could apply to the
// given host address (source or destination) from every switch — the
// targeted invalidation DIFANE uses for host mobility. Returns entries
// removed.
func (c *Controller) InvalidateHost(ip uint32) int {
	covers := func(r *flowspace.Rule) bool {
		return r.Match.Fields[flowspace.FIPSrc].Matches(uint64(ip)) || r.Match.Fields[flowspace.FIPDst].Matches(uint64(ip))
	}
	total := 0
	for _, sw := range c.sb.Switches() {
		total += len(c.withdraw(sw, proto.TableCache, covers))
	}
	return total
}

// adopt makes a, whose authority rules are installed in band, the running
// assignment: the commit, which moves the handlers and band, writes every
// live switch's partition table (Running.Routes) and, with flush, empties
// every ingress cache.
func (c *Controller) adopt(a Assignment, band uint64, flush bool) {
	c.run.Assignment, c.run.Generation = a, band
	c.sb.Commit(c.run, flush)
}

// authorityTables returns the authority-table entries a places at each
// host: every partition's clipped rules at each of its replicas, re-keyed
// (AuthorityEntryID) so clips of one rule from two partitions coexist.
func authorityTables(a Assignment) map[uint32][]flowspace.Rule {
	size := make(map[uint32]int) // sized first: the rules are wide
	for i, p := range a.Partitions {
		for _, host := range a.ReplicasFor(i) {
			size[host] += len(p.Rules)
		}
	}
	out := make(map[uint32][]flowspace.Rule, len(size))
	for i, p := range a.Partitions {
		for _, host := range a.ReplicasFor(i) {
			if out[host] == nil {
				out[host] = make([]flowspace.Rule, 0, size[host])
			}
			for _, r := range p.Rules {
				r.ID = AuthorityEntryID(i, r.ID)
				out[host] = append(out[host], r)
			}
		}
	}
	return out
}

// installAuthorityRules installs a's authority tables, and returns how
// many FlowMods that took.
func (c *Controller) installAuthorityRules(a Assignment) (installed uint64) {
	tables := authorityTables(a)
	for _, sw := range c.sb.Switches() {
		for _, r := range tables[sw] {
			_ = c.send(sw, proto.TableAuthority, proto.OpAdd, r)
			installed++
		}
	}
	return installed
}

// sync brings switch sw's table t to want (SyncTable), read through Stats
// and written with fenced FlowMods.
func (c *Controller) sync(sw uint32, t proto.Table, want []flowspace.Rule) (installed int, withdrawn []uint64) {
	return SyncTable(c.sb.Stats(sw, t), want, func(op proto.FlowModOp, r flowspace.Rule) error {
		return c.send(sw, t, op, r)
	})
}

// SyncTable brings a table holding have to want, the one diff every writer
// of a switch's authority or partition table goes through: it withdraws
// each entry want lacks or holds otherwise and adds only the rules then
// missing, so an entry as wanted keeps its counters and its place in the
// index. write sends one FlowMod. It returns how many adds and the IDs of
// the deletes that write took.
func SyncTable(have []tcam.Entry, want []flowspace.Rule, write func(proto.FlowModOp, flowspace.Rule) error) (installed int, withdrawn []uint64) {
	at := make(map[uint64]int, len(want))
	for i := range want {
		at[want[i].ID] = i
	}
	kept := make([]bool, len(want))
	for i := range have {
		r := &have[i].Rule
		if j, ok := at[r.ID]; ok && want[j] == *r {
			kept[j] = true
		} else if write(proto.OpDelete, *r) == nil {
			withdrawn = append(withdrawn, r.ID)
		}
	}
	for i := range want {
		if !kept[i] && write(proto.OpAdd, want[i]) == nil {
			installed++
		}
	}
	return installed, withdrawn
}

// withdraw deletes every entry of switch sw's table t that drop picks, and
// returns the IDs of those the switch was sent a delete for.
func (c *Controller) withdraw(sw uint32, t proto.Table, drop func(*flowspace.Rule) bool) []uint64 {
	var gone []uint64
	es := c.sb.Stats(sw, t)
	for i := range es {
		if r := &es[i].Rule; drop(r) && c.send(sw, t, proto.OpDelete, *r) == nil {
			gone = append(gone, r.ID)
		}
	}
	return gone
}

// send hands switch sw one FlowMod, stamped with c's epoch.
func (c *Controller) send(sw uint32, t proto.Table, op proto.FlowModOp, r flowspace.Rule) error {
	return c.sb.FlowMod(sw, proto.FlowMod{Table: t, Op: op, Rule: r, Epoch: c.Epoch})
}

func everything(*flowspace.Rule) bool { return true }

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
