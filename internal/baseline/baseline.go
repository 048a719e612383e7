// Package baseline implements the Ethane/NOX-style reactive architecture
// DIFANE is evaluated against: every flow's first packet is buffered at the
// ingress switch and punted to a central controller, which evaluates the
// policy, installs an exact-match microflow rule, and releases the packet.
// The controller's finite processing rate and round-trip latency are the
// bottlenecks the comparison figures measure.
package baseline

import (
	"fmt"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/sim"
	"difane/internal/switchsim"
	"difane/internal/telemetry"
	"difane/internal/topo"
)

// Config tunes the reactive baseline.
type Config struct {
	// ControllerNode is the switch the controller attaches to; control
	// messages traverse the data network to it.
	ControllerNode uint32
	// ControllerRate is flow setups per second the controller sustains
	// (NOX-era controllers manage a few tens of thousands).
	ControllerRate float64
	// ControllerQueue bounds pending setups (0 = unbounded); overflow
	// first packets are dropped.
	ControllerQueue int
	// SetupOverhead is fixed per-setup processing latency beyond queueing
	// (OS, serialization) in seconds.
	SetupOverhead float64
	// CacheCapacity bounds the per-switch microflow table (0 = unlimited).
	CacheCapacity int
	// CacheEviction picks victims for full microflow tables (default LRU;
	// EvictCostAware degrades to LRU here — the baseline has no
	// region-partitioned flow space to score against).
	CacheEviction core.EvictionChoice
	// TCAMBudget, when >0, bounds a switch's total TCAM occupancy; the
	// baseline installs only microflow cache rules, so it acts as an
	// additional cache cap (see switchsim.Config.TCAMBudget).
	TCAMBudget int
	// RuleIdle is the microflow rules' idle timeout; they have no hard
	// timeout.
	RuleIdle float64
}

// Network is a reactive-controller deployment over a topology.
type Network struct {
	Eng  *sim.Engine
	Topo *topo.Graph

	Switches map[uint32]*switchsim.Switch
	ctrl     *sim.Station
	cfg      Config
	policy   []flowspace.Rule

	nextRuleID uint64

	// M aggregates the same measurements as the DIFANE network, so the
	// comparison harness treats both uniformly.
	M core.Measurements
	// ControllerSetups counts setups the controller processed.
	ControllerSetups uint64

	// Observer, when non-nil, receives exactly one VerdictEvent per
	// injected packet at its terminal outcome — the same contract as
	// core.Network.Observer, so the differential checker drives both
	// architectures through one code path.
	Observer func(core.VerdictEvent)

	// Probe is the forensics and metrics layer the DIFANE backends carry,
	// so `difanectl journey` reads a reactive deployment exactly like a
	// DIFANE one. The span shapes reuse the DIFANE vocabulary: the punt to
	// the controller is a "redirect" (Peer = the controller's node) and the
	// controller's policy evaluation an "authority" hit, which keeps one
	// renderer honest for both architectures.
	*telemetry.Probe
}

// finish reports a packet's terminal outcome: the Observer emit plus a
// terminal verdict span at the deciding node when the packet is sampled.
func (n *Network) finish(kind core.VerdictKind, node uint32, k flowspace.Key, seq uint64, egress uint32, trace uint64, latNS uint64) {
	if n.Observer != nil {
		n.Observer(core.VerdictEvent{Key: k, Seq: seq, Kind: kind, Egress: egress})
	}
	if trace != 0 {
		n.Span(telemetry.Event{
			Kind:    telemetry.EvVerdict,
			Node:    node,
			Verdict: core.VerdictCode(kind),
			Value:   latNS,
			Trace:   trace,
			Flow:    telemetry.TupleOfKey(k),
		})
	}
}

// NewNetwork builds the baseline over the topology with the global policy.
func NewNetwork(g *topo.Graph, policy []flowspace.Rule, cfg Config) (*Network, error) {
	if !g.NodeUp(topo.NodeID(cfg.ControllerNode)) {
		return nil, fmt.Errorf("baseline: controller node %d not in topology", cfg.ControllerNode)
	}
	n := &Network{
		Eng:        sim.New(),
		Topo:       g,
		Switches:   make(map[uint32]*switchsim.Switch),
		cfg:        cfg,
		policy:     append([]flowspace.Rule(nil), policy...),
		nextRuleID: 1 << 40,
	}
	n.ctrl = sim.NewStation(n.Eng, cfg.ControllerRate, cfg.ControllerQueue)
	nodes := make([]uint32, 0, len(g.Nodes()))
	for _, id := range g.Nodes() {
		n.Switches[uint32(id)] = switchsim.New(uint32(id), switchsim.Config{
			CacheCapacity: cfg.CacheCapacity,
			CacheEviction: cfg.CacheEviction.TCAMPolicy(),
			TCAMBudget:    cfg.TCAMBudget,
			DisjointCache: true, // exact microflows
		})
		nodes = append(nodes, uint32(id))
	}
	n.Probe = telemetry.NewProbe(telemetry.ProbeConfig{
		Nodes: nodes, Now: telemetry.VirtualClock(n.Eng.Now),
	})
	// The same schema core.RegisterMeasurements gives the DIFANE backends.
	core.RegisterMeasurements(n.Registry(), n.Measurements)
	return n, nil
}

// InjectPacket schedules one packet entering at the ingress switch.
func (n *Network) InjectPacket(at float64, ingress uint32, k flowspace.Key, size int, seq uint64) {
	n.Eng.At(at, func() { n.process(at, ingress, k, size, seq) })
}

// InjectBatch schedules a burst of packets; in the discrete-event baseline
// each packet still becomes its own event at its own virtual time.
func (n *Network) InjectBatch(batch []core.PacketIn) {
	for _, p := range batch {
		n.InjectPacket(p.At, p.Ingress, p.Key, p.Size, p.Seq)
	}
}

func (n *Network) process(injected float64, ingress uint32, k flowspace.Key, size int, seq uint64) {
	now := n.Eng.Now()
	trace := n.TraceID(k, seq)
	if trace != 0 {
		n.Span(telemetry.Event{Kind: telemetry.EvIngress, Node: ingress, Trace: trace, Flow: telemetry.TupleOfKey(k)})
	}
	sw, ok := n.Switches[ingress]
	if !ok || !n.Topo.NodeUp(topo.NodeID(ingress)) {
		n.M.Drops.Unreachable++
		n.finish(core.VerdictUnreachable, ingress, k, seq, 0, trace, 0)
		return
	}
	sw.Advance(now)
	if res := sw.Classify(now, k, size); res.OK {
		if trace != 0 {
			n.Span(telemetry.Event{Kind: telemetry.EvForward, Node: ingress, Peer: res.Rule.Action.Arg,
				Table: uint8(proto.TableCache), RuleID: res.Rule.ID, Trace: trace, Flow: telemetry.TupleOfKey(k)})
		}
		n.applyAction(injected, ingress, k, res.Rule.Action, seq, trace)
		return
	}
	// Miss: punt to the controller (packet-in), wait for service, then the
	// rule comes back (flow-mod + packet-out) and the packet proceeds. In
	// span vocabulary the punt is a redirect whose peer is the controller.
	dIC, ok := n.Topo.Dist(topo.NodeID(ingress), topo.NodeID(n.cfg.ControllerNode))
	if !ok {
		n.M.Drops.Unreachable++
		n.finish(core.VerdictUnreachable, ingress, k, seq, 0, trace, 0)
		return
	}
	if trace != 0 {
		n.Span(telemetry.Event{Kind: telemetry.EvRedirect, Node: ingress, Peer: n.cfg.ControllerNode,
			Trace: trace, Flow: telemetry.TupleOfKey(k)})
	}
	n.Eng.At(now+dIC, func() {
		accepted := n.ctrl.Submit(func(done float64) {
			n.controllerHandle(injected, ingress, k, size, seq, dIC, trace)
		})
		if !accepted {
			n.M.Drops.AuthorityQueue++ // controller queue, same bucket
			n.finish(core.VerdictQueueDrop, n.cfg.ControllerNode, k, seq, 0, trace, 0)
		}
	})
}

func (n *Network) controllerHandle(injected float64, ingress uint32, k flowspace.Key, size int, seq uint64, dIC float64, trace uint64) {
	n.ControllerSetups++
	rule, ok := flowspace.EvalTable(n.policy, k)
	if !ok {
		n.M.Drops.Hole++
		n.finish(core.VerdictHole, n.cfg.ControllerNode, k, seq, 0, trace, 0)
		return
	}
	if trace != 0 {
		n.Span(telemetry.Event{Kind: telemetry.EvAuthority, Node: n.cfg.ControllerNode, Peer: ingress,
			RuleID: rule.ID, Trace: trace, Flow: telemetry.TupleOfKey(k)})
	}
	// Exact-match microflow rule back to the ingress switch.
	n.nextRuleID++
	exact := flowspace.Rule{
		ID:       n.nextRuleID,
		Priority: rule.Priority,
		Match:    exactMatch(k),
		Action:   rule.Action,
	}
	arriveBack := n.Eng.Now() + n.cfg.SetupOverhead + dIC
	n.Eng.At(arriveBack, func() {
		sw := n.Switches[ingress]
		mod := proto.FlowMod{Table: proto.TableCache, Op: proto.OpAdd, Rule: exact,
			Idle: n.cfg.RuleIdle}
		_ = sw.ApplyFlowMod(n.Eng.Now(), &mod)
		if trace != 0 {
			n.Span(telemetry.Event{Kind: telemetry.EvInstall, Node: ingress,
				Table: uint8(proto.TableCache), RuleID: exact.ID, Trace: trace})
		}
		// The buffered packet is released and follows the rule.
		n.applyAction(injected, ingress, k, rule.Action, seq, trace)
	})
}

func (n *Network) applyAction(injected float64, ingress uint32, k flowspace.Key, a flowspace.Action, seq uint64, trace uint64) {
	now := n.Eng.Now()
	switch a.Kind {
	case flowspace.ActDrop:
		n.M.Drops.Policy++
		if seq == 0 {
			n.M.SetupsCompleted++
		}
		n.finish(core.VerdictPolicyDrop, ingress, k, seq, 0, trace, 0)
	case flowspace.ActForward, flowspace.ActCount:
		d, ok := n.Topo.Dist(topo.NodeID(ingress), topo.NodeID(a.Arg))
		if !ok {
			n.M.Drops.Unreachable++
			n.finish(core.VerdictUnreachable, ingress, k, seq, 0, trace, 0)
			return
		}
		n.Eng.At(now+d, func() {
			n.M.Delivered++
			delay := n.Eng.Now() - injected
			n.finish(core.VerdictDelivered, a.Arg, k, seq, a.Arg, trace, uint64(delay*1e9))
			if seq == 0 {
				n.M.FirstPacketDelay.Add(delay)
				n.M.SetupsCompleted++
			} else {
				n.M.LaterPacketDelay.Add(delay)
			}
		})
	default:
		n.M.Drops.Hole++
		n.finish(core.VerdictHole, ingress, k, seq, 0, trace, 0)
	}
}

func exactMatch(k flowspace.Key) flowspace.Match {
	m := flowspace.MatchAll()
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		m = m.WithExact(f, k[f])
	}
	return m
}

// Run drives the simulation to the horizon.
func (n *Network) Run(horizon float64) { n.Eng.Run(horizon) }

// Measurements returns the run's recorded statistics, completing the
// Deployment driving surface shared with the DIFANE network and wire mode.
func (n *Network) Measurements() *core.Measurements { return &n.M }

// Close releases the deployment. The baseline holds no external resources;
// Close exists so Network satisfies the Deployment interface.
func (n *Network) Close() error { return nil }
