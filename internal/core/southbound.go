package core

import (
	"cmp"
	"math"
	"slices"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/tcam"
	"difane/internal/topo"
)

// Southbound is the controller's one handle on a deployment: the switches
// it programs and reads, the clock its phases run on, and the commit
// point. The simulator's side calls its switches directly on virtual time
// (simSouthbound); wire mode's sends fenced proto frames over its control
// channels on real time.
type Southbound interface {
	// Now reads the deployment's clock, in seconds.
	Now() float64
	// At runs fn at time t: on virtual time when the engine gets there, on
	// real time at once.
	At(t float64, fn func())
	// Switches lists the switches to program, in ascending ID order.
	Switches() []uint32
	FlowMod(sw uint32, mod proto.FlowMod) error
	// Barrier returns once switch sw has applied every FlowMod sent to it
	// before, answers from the last commit, and has handled every packet
	// queued at it when the barrier began.
	Barrier(sw uint32) error
	// Stats returns switch sw's table t, each entry with its counters.
	Stats(sw uint32, t proto.Table) []tcam.Entry
	// Up is the deployment's verdict on switch sw: its node state in the
	// topology on the simulator, the failure detector's on wire. No
	// partition rule redirects to a switch that is not up, and load
	// rebalancing places nothing on one.
	Up(sw uint32) bool
	// Commit makes r what the data plane answers from: the authority
	// switches' miss handlers, the band of the authority tables that both
	// a redirected packet and one entering at an authority switch read, and
	// the partition table of every switch that is up (r.Routes, written
	// through SyncTable). With flush, every ingress cache empties at the
	// same point.
	Commit(r Running, flush bool)
	// Note counts n FlowMods of generation (withdraw: deletions) on the
	// policy-churn counters and, for a staged generation, on that update's
	// convergence timeline.
	Note(generation uint64, withdraw bool, n uint64)
}

// Running is what a deployment answers from between two commits.
type Running struct {
	Policy     []flowspace.Rule
	Assignment Assignment
	// Generation is the band Assignment's authority rules carry (0 until
	// the first consistent update; see stageAssignment).
	Generation uint64
	// PinRouting makes partition rules redirect to a partition's primary and
	// then its backup instead of the nearest replica first. Load rebalancing
	// sets it: the controller is then choosing replicas to balance measured
	// load, at the cost of longer detours (the stretch/throughput trade-off).
	// A deployment without a topology always routes this way.
	PinRouting bool
}

// Routes returns switch sw's partition table under r: per partition i, a
// redirect at PriPartitionPrimary (ID PartitionIDBase+2i) and one at
// PriPartitionBackup (+1), the pre-installed failover path. Routed by
// topology g they target sw's nearest and second-nearest replica (the
// paper's nearest-replica redirection); pinned (r.PinRouting, or no
// topology), the primary and the backup. A target that is not up gets no
// rule, and the other takes over: targets are never re-picked. A partition
// whose two targets are one switch has no backup rule.
func (r Running) Routes(sw uint32, g *topo.Graph, up func(uint32) bool) []flowspace.Rule {
	a := r.Assignment
	out := make([]flowspace.Rule, 0, 2*len(a.Partitions))
	for i, p := range a.Partitions {
		near, far := a.Primary[i], a.Backup[i]
		if g != nil && !r.PinRouting {
			near, far = orderByDistance(g, sw, a.ReplicasFor(i))
		}
		rule := flowspace.Rule{ID: PartitionIDBase + uint64(2*i), Priority: PriPartitionPrimary, Match: p.Region,
			Action: flowspace.Action{Kind: flowspace.ActRedirect, Arg: near}}
		if up(near) {
			out = append(out, rule)
		}
		rule.ID, rule.Priority, rule.Action.Arg = rule.ID+1, PriPartitionBackup, far
		if far != near && up(far) {
			out = append(out, rule)
		}
	}
	return out
}

// orderByDistance returns the nearest and second-nearest of hosts from
// switch from in g, breaking ties toward the lower ID. With a single host,
// both returns are that host.
func orderByDistance(g *topo.Graph, from uint32, hosts []uint32) (near, far uint32) {
	dist := func(id uint32) float64 {
		if d, ok := g.Dist(topo.NodeID(from), topo.NodeID(id)); ok {
			return d
		}
		return math.Inf(1)
	}
	order := slices.Clone(hosts)
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Or(cmp.Compare(dist(a), dist(b)), cmp.Compare(a, b)) })
	return order[0], order[min(1, len(order)-1)]
}

// simSouthbound is the simulator's side of the seam: the push delay orders
// phases on the engine's clock, so a barrier has nothing to wait for.
type simSouthbound struct{ n *Network }

func (s simSouthbound) Now() float64                 { return s.n.Eng.Now() }
func (s simSouthbound) At(t float64, fn func())      { s.n.Eng.At(t, fn) }
func (s simSouthbound) Switches() []uint32           { return sortedIDs(s.n.Switches) }
func (s simSouthbound) Barrier(uint32) error         { return nil }
func (s simSouthbound) Commit(r Running, flush bool) { s.n.commit(r, flush) }
func (s simSouthbound) Up(sw uint32) bool            { return s.n.Topo.NodeUp(topo.NodeID(sw)) }

func (s simSouthbound) FlowMod(sw uint32, mod proto.FlowMod) error {
	return s.n.Switches[sw].ApplyFlowMod(s.n.Eng.Now(), &mod)
}

func (s simSouthbound) Stats(sw uint32, t proto.Table) []tcam.Entry {
	return s.n.Switches[sw].Table(t).Entries()
}

func (s simSouthbound) Note(generation uint64, withdraw bool, n uint64) {
	if withdraw {
		s.n.M.PolicyRuleDeletes += n
	} else {
		s.n.M.PolicyRuleInstalls += n
	}
	s.n.Convergence().NoteMods(generation, withdraw, n, s.n.Now(), s.n.counterTotals())
}
