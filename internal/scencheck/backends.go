package scencheck

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"difane/internal/baseline"
	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/oracle"
	"difane/internal/proto"
	"difane/internal/topo"
	"difane/internal/wire"
)

// Deployment knobs shared by all backends so the three modes are compared
// under the same policy-plane shape: small partitions force multi-partition
// assignments (redirect paths get exercised) and a small cache capacity
// forces eviction churn.
const (
	maxRulesPerPartition = 4
	cacheCapacity        = 8
	replication          = 2
)

func buildGraph(sc Scenario) *topo.Graph {
	g := topo.NewGraph()
	for _, id := range sc.Switches {
		g.AddNode(topo.NodeID(id))
	}
	for _, l := range sc.Links {
		g.AddLink(topo.NodeID(l.A), topo.NodeID(l.B), l.Latency)
	}
	return g
}

// observedFromDelta classifies a packet's terminal outcome from which
// accounting counter moved. Redirect sheds land in the queue-drop bucket:
// both are "the network refused under load", and neither is ever expected
// in a checker scenario (rates are unbounded).
func observedFromDelta(d Totals) observed {
	obs := observed{accounted: d.Sum()}
	switch {
	case d.Delivered > 0:
		obs.kind = core.VerdictDelivered
	case d.PolicyDrops > 0:
		obs.kind = core.VerdictPolicyDrop
	case d.Holes > 0:
		obs.kind = core.VerdictHole
	case d.QueueDrops > 0 || d.Shed > 0:
		obs.kind = core.VerdictQueueDrop
	case d.Unreachable > 0:
		obs.kind = core.VerdictUnreachable
	}
	return obs
}

// ---------------------------------------------------------------------------
// Simulator backend

type simBackend struct {
	sc  Scenario
	opt Options

	n    *core.Network
	ctl  *core.Controller
	jdir string

	policy    []flowspace.Rule
	ctlDead   bool
	lastEpoch uint64
	lastEvent *core.VerdictEvent
	seq       uint64
	nInj      uint64
}

func simNetworkConfig(sc Scenario) core.NetworkConfig {
	return core.NetworkConfig{
		Strategy:      sc.Strategy,
		CacheCapacity: cacheCapacity,
		CacheEviction: sc.Eviction,
		TCAMBudget:    sc.TCAMBudget,
		Replication:   replication,
		Partition:     core.PartitionConfig{MaxRulesPerPartition: maxRulesPerPartition},
		// Adapt fast relative to the per-packet 1s quiescence windows, so
		// timeout adaptation and cover aggregation fire mid-scenario where
		// the oracle diff and cache-soundness audit can see their effects.
		CacheAdaptInterval: 0.05,
	}
}

func newSimBackend(sc Scenario, opt Options) (*simBackend, error) {
	b := &simBackend{sc: sc, opt: opt, policy: opt.backendPolicy(sc.Policy)}
	n, err := core.NewNetwork(buildGraph(sc), sc.Authorities, b.policy, simNetworkConfig(sc))
	if err != nil {
		return nil, err
	}
	n.Observer = func(ev core.VerdictEvent) { b.lastEvent = &ev }
	b.n = n
	b.jdir, err = os.MkdirTemp("", "scencheck-sim-*")
	if err != nil {
		return nil, err
	}
	b.ctl, err = core.NewControllerWithJournal(n, b.jdir)
	if err != nil {
		os.RemoveAll(b.jdir)
		return nil, err
	}
	b.lastEpoch = b.ctl.Epoch
	return b, nil
}

func (b *simBackend) totals() Totals   { return measTotals(&b.n.M) }
func (b *simBackend) injected() uint64 { return b.nInj }

func (b *simBackend) packet(st Step) (observed, error) {
	before := b.totals()
	b.lastEvent = nil
	b.n.InjectPacket(b.n.Eng.Now()+0.001, st.Ingress, st.Key, 100, b.seq)
	b.seq++
	b.nInj++
	b.n.Run(b.n.Eng.Now() + 1.0)
	obs := observedFromDelta(b.totals().sub(before))
	if ev := b.lastEvent; ev != nil && ev.Kind == core.VerdictDelivered {
		obs.egress, obs.hasEgress = ev.Egress, true
	}
	return obs, nil
}

func (b *simBackend) update(policy []flowspace.Rule) error {
	if b.ctl == nil {
		return fmt.Errorf("policy update with controller down")
	}
	_, cleanupAt, err := b.ctl.UpdatePolicyConsistent(policy)
	if err != nil {
		return err
	}
	b.policy = policy
	b.n.Run(cleanupAt + 0.01)
	return b.ctl.JournalErr
}

func (b *simBackend) killSwitch(id uint32) error {
	b.n.FailAuthority(id)
	if b.ctl != nil {
		if isAuthority(b.sc, id) {
			b.ctl.OnAuthorityFailure(id)
		}
		b.ctl.OnTopologyChange()
	}
	b.n.Run(b.n.Eng.Now() + 1.0)
	return nil
}

func (b *simBackend) healSwitch(id uint32) error {
	b.n.Topo.SetNode(topo.NodeID(id), true)
	if b.ctl != nil {
		b.ctl.OnTopologyChange()
	}
	b.n.Run(b.n.Eng.Now() + 1.0)
	return nil
}

func (b *simBackend) killController() error {
	if b.ctl == nil {
		return nil
	}
	// Crash: no shutdown handshake beyond losing the journal handle.
	b.lastEpoch = b.ctl.Epoch
	b.ctl.Journal().Close()
	b.ctl = nil
	b.ctlDead = true
	return nil
}

func (b *simBackend) restoreController() error {
	if !b.ctlDead {
		return nil
	}
	ctl, _, err := core.NewControllerFromJournal(b.n, b.jdir)
	if err != nil {
		return err
	}
	if ctl.Epoch <= b.lastEpoch {
		return fmt.Errorf("recovered epoch %d, want > %d", ctl.Epoch, b.lastEpoch)
	}
	b.ctl, b.lastEpoch, b.ctlDead = ctl, ctl.Epoch, false
	b.n.Run(b.n.Eng.Now() + 1.0)
	return nil
}

func isAuthority(sc Scenario, id uint32) bool {
	for _, a := range sc.Authorities {
		if a == id {
			return true
		}
	}
	return false
}

func (b *simBackend) audit() []string {
	parts := core.BuildPartitions(b.policy, core.PartitionConfig{MaxRulesPerPartition: maxRulesPerPartition})
	fresh, err := core.AssignWithReplication(parts, b.sc.Authorities, replication)
	if err != nil {
		return []string{fmt.Sprintf("convergence: fresh assignment: %v", err)}
	}
	return auditTables(b.n.Assignment(), fresh, b.sc.Switches, b.sc.Authorities, func(sw uint32, t proto.Table) []flowspace.Rule {
		return b.n.Switches[sw].Table(t).Rules()
	}, true)
}

// auditTables checks what a deployment's switches hold once the scenario
// quiesces (switches healed, controller live) against fresh, the assignment
// a fresh controller computes from the current policy:
//
//   - (c) every cached rule sits inside some authority rule's clipped
//     region with the same action: a cache can only ever specialize the
//     authority tables, never invent behaviour;
//   - (d) the deployed assignment, each authority switch's table and each
//     switch's partition rules are what that controller would install.
//
// A deployment whose kills never heal (wire) leaves the dead switches out
// of switches and passes primaries false when there are any: promotion
// withdrew the partition rules redirecting to them.
func auditTables(deployed, fresh core.Assignment, switches, authorities []uint32,
	read func(sw uint32, t proto.Table) []flowspace.Rule, primaries bool) []string {
	var out []string
	partRules := make([][]flowspace.Rule, len(deployed.Partitions))
	for i, p := range deployed.Partitions {
		partRules[i] = p.Rules
	}
	for _, swID := range switches {
		for _, r := range read(swID, proto.TableCache) {
			if !oracle.CacheRuleSound(r, partRules) {
				out = append(out, fmt.Sprintf(
					"cache-soundness: switch %d cache rule %d (%v -> %v) not contained in any authority rule",
					swID, r.ID, r.Match, r.Action))
			}
		}
	}
	got := normalizeAssignment(deployed)
	want := normalizeAssignment(fresh)
	if !reflect.DeepEqual(got, want) {
		out = append(out, fmt.Sprintf(
			"convergence: deployed assignment differs from a fresh controller's: got %+v want %+v", got, want))
		return out // downstream table checks would only echo the same skew
	}
	a := deployed
	for _, swID := range switches {
		// Authority tables hold exactly the union of hosted partitions' rules.
		if contains(authorities, swID) {
			want := map[string]bool{}
			for i := range a.Partitions {
				if !contains(a.ReplicasFor(i), swID) {
					continue
				}
				for _, r := range a.Partitions[i].Rules {
					want[ruleKey(r)] = true
				}
			}
			seen := map[string]bool{}
			for _, r := range read(swID, proto.TableAuthority) {
				k := ruleKey(r)
				seen[k] = true
				if !want[k] {
					out = append(out, fmt.Sprintf(
						"convergence: authority %d holds unexpected rule %s", swID, k))
				}
			}
			for k := range want {
				if !seen[k] {
					out = append(out, fmt.Sprintf(
						"convergence: authority %d missing rule %s", swID, k))
				}
			}
		}
		// Partition rules redirect every partition to a hosting replica.
		havePrimary := make([]bool, len(a.Partitions))
		for _, r := range read(swID, proto.TablePartition) {
			i, ok := a.PartitionOfRuleID(core.PartitionIDBase, r.ID)
			if !ok {
				out = append(out, fmt.Sprintf(
					"convergence: switch %d partition rule %d maps to no partition", swID, r.ID))
				continue
			}
			if r.Action.Kind != flowspace.ActRedirect || !contains(a.ReplicasFor(i), r.Action.Arg) {
				out = append(out, fmt.Sprintf(
					"convergence: switch %d partition %d redirects to non-replica %v", swID, i, r.Action))
			}
			if !reflect.DeepEqual(r.Match, a.Partitions[i].Region) {
				out = append(out, fmt.Sprintf(
					"convergence: switch %d partition %d rule region %v != %v", swID, i, r.Match, a.Partitions[i].Region))
			}
			if r.ID == core.PartitionIDBase+uint64(2*i) {
				havePrimary[i] = true
			}
		}
		for i, ok := range havePrimary {
			if !ok && primaries {
				out = append(out, fmt.Sprintf(
					"convergence: switch %d lacks a primary partition rule for partition %d", swID, i))
			}
		}
	}
	return out
}

// normalizeAssignment strips the per-generation ID band policy updates OR
// into staged rule IDs, so assignments from different generations compare.
func normalizeAssignment(a core.Assignment) core.Assignment {
	out := a
	out.Partitions = make([]core.Partition, len(a.Partitions))
	for i, p := range a.Partitions {
		np := p
		np.Rules = make([]flowspace.Rule, len(p.Rules))
		for j, r := range p.Rules {
			r.ID &= 0xFFFFFFFF
			np.Rules[j] = r
		}
		out.Partitions[i] = np
	}
	return out
}

func ruleKey(r flowspace.Rule) string {
	return fmt.Sprintf("id=%d pri=%d match=%v act=%v", r.ID&0xFFFFFFFF, r.Priority, r.Match, r.Action)
}

func contains(ids []uint32, id uint32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func (b *simBackend) close() {
	if b.ctl != nil {
		b.ctl.Journal().Close()
	}
	os.RemoveAll(b.jdir)
}

// ---------------------------------------------------------------------------
// Baseline backend

// baselineBackend drives the reactive NOX-style deployment. It has no
// fault model — the controller is an abstract station, switches don't
// fail — so kill/heal steps are no-ops and its expected-verdict dead set
// stays empty.
type baselineBackend struct {
	sc  Scenario
	opt Options

	n      *baseline.Network
	policy []flowspace.Rule
	acc    Totals // totals of torn-down incarnations (policy updates rebuild)

	lastEvent *core.VerdictEvent
	seq       uint64
	nInj      uint64
}

func newBaselineBackend(sc Scenario, opt Options) (*baselineBackend, error) {
	b := &baselineBackend{sc: sc, opt: opt}
	if err := b.deploy(opt.backendPolicy(sc.Policy)); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *baselineBackend) deploy(policy []flowspace.Rule) error {
	n, err := baseline.NewNetwork(buildGraph(b.sc), policy, baseline.Config{
		ControllerNode: b.sc.Switches[0],
		CacheCapacity:  cacheCapacity,
		CacheEviction:  b.sc.Eviction,
		TCAMBudget:     b.sc.TCAMBudget,
	})
	if err != nil {
		return err
	}
	n.Observer = func(ev core.VerdictEvent) { b.lastEvent = &ev }
	b.n, b.policy = n, policy
	return nil
}

func (b *baselineBackend) totals() Totals   { return b.acc.add(measTotals(&b.n.M)) }
func (b *baselineBackend) injected() uint64 { return b.nInj }

func (b *baselineBackend) packet(st Step) (observed, error) {
	before := b.totals()
	b.lastEvent = nil
	b.n.InjectPacket(b.n.Eng.Now()+0.001, st.Ingress, st.Key, 100, b.seq)
	b.seq++
	b.nInj++
	b.n.Run(b.n.Eng.Now() + 1.0)
	obs := observedFromDelta(b.totals().sub(before))
	if ev := b.lastEvent; ev != nil && ev.Kind == core.VerdictDelivered {
		obs.egress, obs.hasEgress = ev.Egress, true
	}
	return obs, nil
}

// update rebuilds the deployment: an Ethane-style controller installs only
// exact microflow rules, so a policy change is a restart with clean caches.
func (b *baselineBackend) update(policy []flowspace.Rule) error {
	b.acc = b.acc.add(measTotals(&b.n.M))
	return b.deploy(policy)
}

func (b *baselineBackend) killSwitch(uint32) error  { return nil }
func (b *baselineBackend) healSwitch(uint32) error  { return nil }
func (b *baselineBackend) killController() error    { return nil }
func (b *baselineBackend) restoreController() error { return nil }

// audit checks the baseline's cache-soundness analogue: every installed
// microflow rule must agree with the oracle's verdict for its exact key.
func (b *baselineBackend) audit() []string {
	var out []string
	for _, swID := range b.sc.Switches {
		for _, r := range b.n.Switches[swID].Table(proto.TableCache).Rules() {
			k, exact := oracle.ExactKey(r.Match)
			if !exact {
				out = append(out, fmt.Sprintf(
					"cache-soundness: switch %d holds non-exact microflow rule %d (%v)", swID, r.ID, r.Match))
				continue
			}
			v := oracle.Evaluate(b.policy, k)
			ok := false
			switch r.Action.Kind {
			case flowspace.ActForward, flowspace.ActCount:
				ok = v.Kind == oracle.Deliver && v.Egress == r.Action.Arg
			case flowspace.ActDrop:
				ok = v.Kind == oracle.Drop
			}
			if !ok {
				out = append(out, fmt.Sprintf(
					"cache-soundness: switch %d microflow rule %d action %v disagrees with oracle %s",
					swID, r.ID, r.Action, v))
			}
		}
	}
	return out
}

func (b *baselineBackend) close() {}

func (t Totals) add(o Totals) Totals {
	return Totals{
		Delivered:   t.Delivered + o.Delivered,
		PolicyDrops: t.PolicyDrops + o.PolicyDrops,
		Holes:       t.Holes + o.Holes,
		QueueDrops:  t.QueueDrops + o.QueueDrops,
		Shed:        t.Shed + o.Shed,
		Unreachable: t.Unreachable + o.Unreachable,
	}
}

// ---------------------------------------------------------------------------
// Wire backend

// wireBackend drives the real-goroutine cluster. Kills are crash-only
// (heal steps are no-ops and the dead set never shrinks), and policy
// updates are the controller's live consistent update.
type wireBackend struct {
	sc  Scenario
	opt Options

	d      *wire.Deployment
	policy []flowspace.Rule
	killed map[uint32]bool

	lastEpoch uint64
	seq       uint64
	nInj      uint64
}

func wireClusterConfig(sc Scenario, policy []flowspace.Rule) wire.ClusterConfig {
	return wire.ClusterConfig{
		Switches:      sc.Switches,
		Authorities:   sc.Authorities,
		Policy:        policy,
		Strategy:      sc.Strategy,
		CacheCapacity: cacheCapacity,
		CacheEviction: sc.Eviction,
		TCAMBudget:    sc.TCAMBudget,
		// Several adaptation rounds fit inside each packet's quiescence
		// wait, mirroring the simulator backend's fast-adapt setting.
		CacheAdaptInterval: 50 * time.Millisecond,
		// Generous liveness windows: differential seeds run massively in
		// parallel, and a scheduler stall must not read as a switch death
		// (real kills short-circuit the detector via the killed flag, so
		// failover coverage doesn't depend on these timeouts).
		BFD: wire.SlackBFD,
		// Three controller replicas: kill-controller steps kill the leader
		// and an automatic election restores service, exercising verdict
		// stability with elections in flight.
		HA: wire.HAConfig{
			Replicas:      3,
			ElectionDelay: 10 * time.Millisecond,
		},
		Partition: core.PartitionConfig{MaxRulesPerPartition: maxRulesPerPartition},
	}
}

func newWireBackend(sc Scenario, opt Options) (*wireBackend, error) {
	policy := opt.backendPolicy(sc.Policy)
	d, err := wire.NewDeployment(wireClusterConfig(sc, policy))
	if err != nil {
		return nil, err
	}
	return &wireBackend{sc: sc, opt: opt, d: d, policy: policy, killed: map[uint32]bool{},
		lastEpoch: d.C.Epoch()}, nil
}

func (b *wireBackend) totals() Totals   { return measTotals(b.d.Measurements()) }
func (b *wireBackend) injected() uint64 { return b.nInj }

func (b *wireBackend) packet(st Step) (observed, error) {
	// Drain stale delivery notifications so the one we read below belongs
	// to this packet.
	for {
		select {
		case <-b.d.C.Deliveries:
			continue
		default:
		}
		break
	}
	before := b.totals()
	b.d.InjectPacket(0, st.Ingress, st.Key, 100, b.seq)
	b.seq++
	b.nInj++
	b.d.Run(5.0)
	obs := observedFromDelta(b.totals().sub(before))
	if obs.kind == core.VerdictDelivered && obs.accounted == 1 {
		select {
		case del := <-b.d.C.Deliveries:
			obs.egress, obs.hasEgress = del.Egress, true
		case <-time.After(time.Second):
			// deliver() publishes the notification before completion, so
			// this only triggers if the channel overflowed mid-drain.
		}
	}
	return obs, nil
}

func (b *wireBackend) update(policy []flowspace.Rule) error {
	if err := b.d.C.UpdatePolicyConsistent(policy); err != nil {
		return err
	}
	b.policy = policy
	return nil
}

func (b *wireBackend) killSwitch(id uint32) error {
	if !b.d.C.KillSwitch(id) {
		return fmt.Errorf("unknown switch %d", id)
	}
	b.killed[id] = true
	return nil
}

// healSwitch is a no-op: wire-mode crashes are permanent (the goroutines
// are gone). The driver's dead set keeps the switch dead for expectations.
func (b *wireBackend) healSwitch(uint32) error { return nil }

func (b *wireBackend) killController() error {
	b.lastEpoch = b.d.C.Epoch()
	b.d.C.KillController()
	return nil
}

func (b *wireBackend) restoreController() error {
	// Under HA the election already restored service (ControllerDown is
	// usually false again by now); RestoreController revives the killed
	// replica so later kill steps still find standbys. Either way the
	// epoch must have advanced past the killed incarnation's.
	b.d.C.RestoreController()
	if e := b.d.C.Epoch(); e <= b.lastEpoch {
		return fmt.Errorf("epoch %d after restore, want > %d", e, b.lastEpoch)
	}
	b.lastEpoch = b.d.C.Epoch()
	return nil
}

// audit runs the simulator's table checks on the live switches, against
// the assignment wire's controller places (a primary and a backup each).
func (b *wireBackend) audit() []string {
	parts := core.BuildPartitions(b.policy, core.PartitionConfig{MaxRulesPerPartition: maxRulesPerPartition})
	fresh, err := core.Assign(parts, b.sc.Authorities)
	if err != nil {
		return []string{fmt.Sprintf("convergence: fresh assignment: %v", err)}
	}
	var live []uint32
	for _, id := range b.d.C.SwitchIDs() {
		if !b.killed[id] {
			live = append(live, id)
		}
	}
	return auditTables(b.d.C.Assignment(), fresh, live, b.sc.Authorities, b.d.C.TableRules, len(b.killed) == 0)
}

func (b *wireBackend) close() { _ = b.d.Close() }
