package core

import (
	"fmt"
	"math"

	"difane/internal/flowspace"
	"difane/internal/metrics"
	"difane/internal/proto"
	"difane/internal/sim"
	"difane/internal/switchsim"
	"difane/internal/tcam"
	"difane/internal/telemetry"
	"difane/internal/topo"
)

// NetworkConfig tunes the simulated DIFANE deployment.
type NetworkConfig struct {
	// Strategy picks the cache-rule generation scheme.
	Strategy CacheStrategy
	// CacheCapacity bounds each ingress switch's cache table (0 = unlimited).
	CacheCapacity int
	// CacheIdle is the idle timeout of generated cache rules (0 = none);
	// they carry no hard timeout.
	CacheIdle float64
	// CacheEviction picks the victim policy for full caches.
	CacheEviction EvictionChoice
	// TCAMBudget, when >0, bounds each switch's *total* TCAM occupancy
	// (cache + authority + partition rules share one physical table); the
	// cache's capacity is continuously derived as the budget minus the
	// mandatory-rule footprint. See switchsim.Config.TCAMBudget.
	TCAMBudget int
	// CacheAdaptInterval is the period of the cost-aware policy's
	// adaptation tick — per-region idle-timeout tuning and cover-rule
	// aggregation (default 0.25s; only runs under EvictCostAware).
	CacheAdaptInterval float64
	// AuthorityRate is each authority switch's miss-handling capacity in
	// flows per second (0 = infinitely fast). The paper's software-assisted
	// authority switch sustains on the order of several hundred thousand
	// flow setups per second.
	AuthorityRate float64
	// AuthorityQueue bounds the authority's pending-miss queue; overflow
	// packets are dropped (0 = unbounded).
	AuthorityQueue int
	// Replication is the number of authority switches each partition is
	// hosted at (minimum 2 when possible). More replicas cost TCAM but
	// shorten redirect detours, since every ingress targets its nearest
	// replica.
	Replication int
	// HopByHop enables per-link load accounting: packets are walked along
	// their shortest paths and every directed-link traversal is counted in
	// Network.LinkLoads. Delays are unchanged (shortest-path latency
	// either way); the cost is the per-packet path computation.
	HopByHop bool
	// Partition tunes the flow-space partitioner.
	Partition PartitionConfig
}

// EvictionChoice selects the ingress-cache eviction policy. The zero
// value is LRU, the behaviour DIFANE's reactive caching approximates.
type EvictionChoice int

// Eviction policies.
const (
	EvictDefaultLRU EvictionChoice = iota
	EvictLFU
	EvictNone
	// EvictCostAware scores victims by predicted miss cost (observed
	// redirect latency × region hit rate × entry re-reference rate) via
	// internal/cachepolicy, falling back to LRU ordering when the scorer
	// declines.
	EvictCostAware
)

// TCAMPolicy maps the deployment-level choice onto the TCAM's built-in
// victim ordering. EvictCostAware maps to LRU: the cost scorer is plugged
// in as a custom VictimFunc on top, and LRU is its declared fallback.
func (e EvictionChoice) TCAMPolicy() tcam.EvictionPolicy {
	switch e {
	case EvictLFU:
		return tcam.EvictLFU
	case EvictNone:
		return tcam.EvictNone
	default:
		return tcam.EvictLRU
	}
}

func (e EvictionChoice) String() string {
	switch e {
	case EvictLFU:
		return "lfu"
	case EvictNone:
		return "none"
	case EvictCostAware:
		return "cost"
	default:
		return "lru"
	}
}

// Drops breaks out why packets were lost.
type Drops struct {
	// Policy counts packets matching a drop rule (not an error).
	Policy uint64
	// Hole counts packets matching no rule at the authority.
	Hole uint64
	// AuthorityQueue counts packets shed by an overloaded authority.
	AuthorityQueue uint64
	// RedirectShed counts redirects refused by the ingress token bucket —
	// wire mode's miss-storm protection deliberately dropping the tail of
	// an overload instead of collapsing the authority switch.
	RedirectShed uint64
	// Unreachable counts packets whose redirect or delivery path was
	// partitioned away.
	Unreachable uint64
}

// Lost sums the drops that are losses: everything but Policy, which is
// the policy doing its job.
func (d Drops) Lost() uint64 {
	return d.Hole + d.AuthorityQueue + d.RedirectShed + d.Unreachable
}

// Measurements aggregates what the evaluation records from a run.
type Measurements struct {
	// FirstPacketDelay is the injection→delivery latency of each flow's
	// first packet.
	FirstPacketDelay metrics.Dist
	// LaterPacketDelay is the same for non-first packets.
	LaterPacketDelay metrics.Dist
	// Stretch is (detour length / direct length) for packets that took the
	// authority detour.
	Stretch metrics.Dist

	Delivered uint64
	Redirects uint64
	Drops     Drops

	// SetupsCompleted counts flows whose first packet was delivered or
	// legitimately policy-dropped — the throughput figures' numerator.
	SetupsCompleted uint64

	// Resilience counters, populated by wire mode's failure detector and
	// failover machinery (zero in pure simulation runs).
	//
	// AuthorityDeaths counts switches the failure detector declared dead;
	// FailoversLocal counts ingress-local partition-rule repoints onto a
	// backup authority (no controller round trip); FailoversPromoted counts
	// partition rules the controller withdrew after a death; and
	// ControlReconnects counts control connections re-established after a
	// loss.
	AuthorityDeaths   uint64
	FailoversLocal    uint64
	FailoversPromoted uint64
	ControlReconnects uint64

	// Controller crash-recovery and overload-protection counters (wire
	// mode; zero elsewhere).
	//
	// ControllerOutages counts controller losses the switches rode out;
	// StaleInstallsRejected counts FlowMods a switch refused because they
	// carried an epoch older than its fence; CacheInstallsShed counts
	// cache installs an authority switch did not hand to the ingress: its
	// install token bucket was empty under a miss storm, or the ingress's
	// install queue was full, or the ingress was dead.
	ControllerOutages     uint64
	StaleInstallsRejected uint64
	CacheInstallsShed     uint64

	// Policy-churn counters: authority/partition rules installed and
	// removed by policy updates, rebalances, and recovery reconciliation.
	// A no-op policy update must leave both untouched.
	PolicyRuleInstalls uint64
	PolicyRuleDeletes  uint64

	// Failure-detection and HA timing (wire mode; empty elsewhere).
	//
	// FailoverDetection samples the latency from an injected fault
	// (switch kill, control partition) to the failure detector's death
	// verdict, in seconds — milliseconds at the default BFD timers.
	// LeaderElection samples the time
	// from a controller-leader kill to the new leader being seated;
	// LeaderElections counts completed elections.
	FailoverDetection metrics.Dist
	LeaderElection    metrics.Dist
	LeaderElections   uint64
}

// Snapshot returns an independent copy to query while the original keeps
// accumulating: Measurements is a plain value (its distributions hold no
// pointer), so a struct copy is one. Nothing in it is synchronized; a
// caller that shares m with a writer holds its own lock around this.
func (m *Measurements) Snapshot() *Measurements {
	out := *m
	return &out
}

// Network is a DIFANE deployment running under the discrete-event engine.
type Network struct {
	Eng  *sim.Engine
	Topo *topo.Graph

	Switches map[uint32]*switchsim.Switch
	authSt   map[uint32]*sim.Station

	// gen is what the network was last committed to (commit): its policy,
	// assignment, authority band and miss handlers.
	gen *Generation
	cfg NetworkConfig

	// LinkLoads counts packets per directed link when cfg.HopByHop is set.
	LinkLoads LinkLoads

	// cache is the cost-aware caching layer (nil, and every call on it a
	// no-op, unless cfg.CacheEviction == EvictCostAware).
	cache *CacheAdapter

	// Observer, when non-nil, receives exactly one VerdictEvent per
	// injected packet at its terminal outcome. The differential checker
	// (internal/scencheck) uses it to compare per-packet behaviour against
	// the reference oracle; nil costs nothing.
	Observer func(VerdictEvent)

	M Measurements

	// Probe is the forensics and metrics layer shared with the baseline and
	// wire mode, on virtual time: span events carry the virtual instant the
	// engine processed them at, so a journey assembled from a simulation
	// reads like one from a live cluster — only the clock base differs.
	*telemetry.Probe
}

// NewNetwork builds a DIFANE network over the topology. Every node in the
// graph becomes a switch; authorities lists the switches hosting authority
// rules; policy is the global prioritized rule set.
func NewNetwork(g *topo.Graph, authorities []uint32, policy []flowspace.Rule, cfg NetworkConfig) (*Network, error) {
	if len(authorities) == 0 {
		return nil, fmt.Errorf("core: need at least one authority switch")
	}
	n := &Network{
		Eng:       sim.New(),
		Topo:      g,
		Switches:  make(map[uint32]*switchsim.Switch),
		authSt:    make(map[uint32]*sim.Station),
		cfg:       cfg,
		LinkLoads: make(LinkLoads),
		cache:     NewCacheAdapter(cfg.CacheEviction),
	}
	for _, id := range g.Nodes() {
		n.Switches[uint32(id)] = switchsim.New(uint32(id), switchsim.Config{
			CacheCapacity: cfg.CacheCapacity,
			CacheEviction: cfg.CacheEviction.TCAMPolicy(),
			CacheVictim:   n.cache.VictimFn(),
			TCAMBudget:    cfg.TCAMBudget,
			DisjointCache: cfg.Strategy != StrategyDependent,
		})
	}
	for _, id := range authorities {
		if _, ok := n.Switches[id]; !ok {
			return nil, fmt.Errorf("core: authority switch %d not in topology", id)
		}
		n.authSt[id] = sim.NewStation(n.Eng, cfg.AuthorityRate, cfg.AuthorityQueue)
	}
	nodes := make([]uint32, 0, len(n.Switches))
	for id := range n.Switches {
		nodes = append(nodes, id)
	}
	n.Probe = telemetry.NewProbe(telemetry.ProbeConfig{
		Nodes: nodes, Now: telemetry.VirtualClock(n.Eng.Now),
	})
	RegisterMeasurements(n.Registry(), n.Measurements)
	n.cache.RegisterMetrics(n.Registry())
	if err := NewController(n).Boot(policy); err != nil {
		return nil, err
	}
	n.startCacheAdaptation()
	return n, nil
}

// authorityBandShift places the partition band of an authority-table entry
// ID above both the 32-bit policy-rule ID and the generation band that
// consistent updates OR in at bit 32.
const authorityBandShift = 42

// AuthorityEntryID returns the authority-TCAM entry ID for partition
// part's clip of rule id. Two partitions hosted on the same switch can
// both carry a clip of the same policy rule (the rule spans both regions);
// banding the partition index in keeps the clips from replacing each other
// in the shared table.
func AuthorityEntryID(part int, id uint64) uint64 {
	return uint64(part+1)<<authorityBandShift | id
}

// AuthorityEntryRuleID recovers the (possibly generation-banded) rule ID
// embedded in an authority-TCAM entry ID.
func AuthorityEntryRuleID(entry uint64) uint64 {
	return entry & (1<<authorityBandShift - 1)
}

// AuthorityEntryPartition recovers the partition index banded into an
// authority-TCAM entry ID (−1 for an ID that carries none).
func AuthorityEntryPartition(entry uint64) int {
	return int(entry>>authorityBandShift) - 1
}

// GenerationMask covers the generation band of an authority-TCAM entry ID,
// between the 32-bit policy rule ID and the partition band (stageAssignment).
const GenerationMask uint64 = (1<<authorityBandShift - 1) &^ 0xFFFFFFFF

// partitionIDBase offsets partition-rule IDs away from policy rule IDs.
const partitionIDBase uint64 = 1 << 50

// PartitionIDBase is the partition-rule ID offset, exported so harnesses
// can map installed partition-table rules back to partition indices via
// Assignment.PartitionOfRuleID.
const PartitionIDBase = partitionIDBase

// commit is the simulator's Southbound.Commit: the next generation, the
// band each switch's own classification reads of its authority table, and
// the partition table of every switch that is up move together at one
// virtual instant, the commit point for all three. A redirect in flight
// across it is answered by the generation it was sent under.
func (n *Network) commit(r Running, flush bool) {
	n.cache.SetAssignment(r.Assignment)
	n.gen = NextGeneration(n.gen, r, flush, n.cfg.Strategy, n.cache, n.cfg.CacheIdle)
	up := func(id uint32) bool { return n.Topo.NodeUp(topo.NodeID(id)) }
	for id, sw := range n.Switches {
		sw.SetAuthorityBand(GenerationMask, r.Generation)
		if flush {
			sw.ClearCache()
		}
		if up(id) {
			SyncTable(sw.Table(proto.TablePartition).Entries(), r.Routes(id, n.Topo, up), func(op proto.FlowModOp, rule flowspace.Rule) error {
				return sw.ApplyFlowMod(n.Eng.Now(), &proto.FlowMod{Table: proto.TablePartition, Op: op, Rule: rule})
			})
		}
	}
}

// PacketIn is one packet handed to a deployment for injection — the
// argument tuple of InjectPacket in struct form, so callers can hand whole
// bursts to a backend in one call (InjectBatch).
type PacketIn struct {
	// At is the virtual injection time (ignored by real-time backends).
	At float64
	// Ingress is the switch the packet enters at.
	Ingress uint32
	// Key is the packet's header projected onto the flowspace match tuple.
	Key flowspace.Key
	// Size is the packet's size in bytes.
	Size int
	// Seq is the packet's sequence within its flow (0 = first).
	Seq uint64
}

// InjectPacket schedules one packet entering the network at the ingress
// switch at time at. seq 0 marks a flow's first packet.
func (n *Network) InjectPacket(at float64, ingress uint32, k flowspace.Key, size int, seq uint64) {
	n.Eng.At(at, func() {
		n.processAtIngress(at, ingress, k, size, seq)
	})
}

// InjectBatch schedules a burst of packets. The simulator is a
// discrete-event engine, so batching here is a convenience loop — each
// packet still becomes its own event at its own virtual time.
func (n *Network) InjectBatch(batch []PacketIn) {
	for _, p := range batch {
		n.InjectPacket(p.At, p.Ingress, p.Key, p.Size, p.Seq)
	}
}

// processAtIngress classifies a packet at its ingress switch and takes the
// step core decides for it.
func (n *Network) processAtIngress(injected float64, ingress uint32, k flowspace.Key, size int, seq uint64) {
	now := n.Eng.Now()
	trace := n.TraceID(k, seq)
	if trace != 0 {
		n.Span(telemetry.Event{Kind: telemetry.EvIngress, Node: ingress, Trace: trace, Flow: telemetry.TupleOfKey(k)})
	}
	sw, ok := n.Switches[ingress]
	if !ok || !n.Topo.NodeUp(topo.NodeID(ingress)) {
		n.finish(VerdictUnreachable, ingress, k, seq, trace, false, 0)
		return
	}
	sw.Advance(now)
	var res [1]switchsim.Result
	sw.ClassifyBurst(now, []flowspace.Key{k}, []int{size}, res[:])
	if res[0].OK && res[0].Table == proto.TableCache {
		n.cache.ObserveHit(&res[0].Rule.Match)
	}
	st := IngressStep(&res[0])
	if st.Kind != VerdictDelivered {
		n.finish(st.Kind, ingress, k, seq, trace, false, 0)
		return
	}
	if trace != 0 {
		ev := telemetry.EvForward
		if st.Redirect {
			ev = telemetry.EvRedirect
		}
		n.Span(telemetry.Event{Kind: ev, Node: ingress, Peer: st.To,
			Table: uint8(res[0].Table), RuleID: res[0].Rule.ID, Trace: trace, Flow: telemetry.TupleOfKey(k)})
	}
	if st.Redirect {
		n.redirect(injected, ingress, st.To, k, size, seq, trace)
	} else {
		n.forward(injected, ingress, st.To, k, seq, trace, 0)
	}
}

// redirect sends a packet from its ingress into its authority switch's
// service queue, carrying the generation its ingress classified it under.
func (n *Network) redirect(injected float64, ingress, authority uint32, k flowspace.Key, size int, seq, trace uint64) {
	n.M.Redirects++
	via := n.gen.Via()
	dIA, _ := n.Topo.Dist(topo.NodeID(ingress), topo.NodeID(authority))
	sent := n.sendAlong(ingress, authority, func() {
		st := n.authSt[authority]
		if st == nil {
			n.finish(VerdictUnreachable, authority, k, seq, trace, false, 0)
		} else if !st.Submit(func(float64) {
			n.authorityHandle(injected, ingress, authority, via, k, size, seq, dIA, trace)
		}) {
			n.finish(VerdictQueueDrop, authority, k, seq, trace, false, 0)
		}
	})
	if !sent {
		n.finish(VerdictUnreachable, ingress, k, seq, trace, false, 0)
	}
}

// authorityHandle answers a redirect at its authority switch from the
// generation its ingress classified it under (via): the cache rules go back
// to the ingress after the control path, and the packet on to its egress.
func (n *Network) authorityHandle(injected float64, ingress, authority uint32, via uint8, k flowspace.Key, size int, seq uint64, dIA float64, trace uint64) {
	now := n.Eng.Now()
	g := n.gen.Answering(via)
	sw := n.Switches[authority]
	v := sw.Table(proto.TableAuthority).AcquireView()
	auth, res := g.Answer(sw, &v, &k, size, now, nil)
	v.Release()
	if res.OK {
		if trace != 0 {
			n.Span(telemetry.Event{Kind: telemetry.EvAuthority, Node: authority, Peer: ingress,
				Table: uint8(proto.TableAuthority), RuleID: res.Rule.ID, Trace: trace, Flow: telemetry.TupleOfKey(k)})
		}
		n.cache.ObserveMiss(auth.RegionIndex, now-injected)
		if dAI, ok := n.Topo.Dist(topo.NodeID(authority), topo.NodeID(ingress)); ok && len(res.CacheMods) > 0 {
			in := Install{g.Seq, trace, res.CacheMods}
			if trace != 0 {
				in.Sent(n.Probe, authority, ingress, telemetry.TupleOfKey(k))
			}
			n.Eng.At(now+dAI, func() { in.Apply(n.Probe, n.Switches[ingress], n.gen, n.Eng.Now()) })
		}
	}
	st := AnswerStep(&res)
	if st.Kind != VerdictDelivered {
		n.finish(st.Kind, authority, k, seq, trace, false, 0)
		return
	}
	stretch := 1.0
	dAE, _ := n.Topo.Dist(topo.NodeID(authority), topo.NodeID(st.To))
	if direct, ok := n.Topo.Dist(topo.NodeID(ingress), topo.NodeID(st.To)); ok && direct > 0 {
		stretch = (dIA + dAE) / direct
	}
	n.forward(injected, authority, st.To, k, seq, trace, stretch)
}

// forward sends a packet from switch at to its egress and delivers it there;
// stretch is its detour's (0 for a packet that took none).
func (n *Network) forward(injected float64, at, egress uint32, k flowspace.Key, seq, trace uint64, stretch float64) {
	sent := n.sendAlong(at, egress, func() {
		delay := n.Eng.Now() - injected
		n.finish(VerdictDelivered, egress, k, seq, trace, stretch > 0, delay)
		if seq == 0 {
			n.M.FirstPacketDelay.Add(delay)
		} else {
			n.M.LaterPacketDelay.Add(delay)
		}
		if stretch >= 1.0 && !math.IsInf(stretch, 1) {
			n.M.Stretch.Add(stretch)
		}
	})
	if !sent {
		n.finish(VerdictUnreachable, at, k, seq, trace, false, 0)
	}
}

// Run drives the simulation to the horizon. A drained event queue is the
// simulator's quiesce point — every injected packet's event chain has
// fully resolved — so any open policy-update convergence timelines are
// stamped converged here, mirroring wire mode's accounting-identity check.
func (n *Network) Run(horizon float64) {
	n.Eng.Run(horizon)
	if n.Eng.Pending() == 0 {
		n.Convergence().NoteQuiesce(n.Now(), n.counterTotals())
	}
}

// Measurements returns the run's recorded statistics, completing the
// Deployment driving surface shared with the baseline and wire mode.
func (n *Network) Measurements() *Measurements { return &n.M }

// Close releases the deployment. The simulated network holds no external
// resources; Close exists so Network satisfies the Deployment interface.
func (n *Network) Close() error { return nil }

// FailAuthority marks an authority switch down in the topology. Data-plane
// redirects to it start failing immediately; Controller.OnTopologyChange
// (the controller's failover action) withdraws them, so each partition's
// other replica takes over.
func (n *Network) FailAuthority(id uint32) {
	n.Topo.SetNode(topo.NodeID(id), false)
}

// CacheEntries returns the current total number of cache entries across
// all switches.
func (n *Network) CacheEntries() int {
	total := 0
	for _, sw := range n.Switches {
		total += sw.Table(proto.TableCache).Len()
	}
	return total
}

// Assignment returns the partition→authority assignment the network runs.
func (n *Network) Assignment() Assignment { return n.gen.Assignment }

// Policy returns the global policy the network runs.
func (n *Network) Policy() []flowspace.Rule { return n.gen.Policy }

// AllAuthorities returns every partition handler in the network (primaries
// and backup replicas), for statistics aggregation.
func (n *Network) AllAuthorities() []*Authority {
	var out []*Authority
	for i := range n.gen.Assignment.Partitions {
		for _, host := range n.gen.Assignment.ReplicasFor(i) {
			out = append(out, n.gen.Handlers[HandlerKey{host, i}])
		}
	}
	return out
}
