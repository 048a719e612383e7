// Package difane is a Go implementation of DIFANE — "Scalable Flow-Based
// Networking with DIFANE" (Yu, Rexford, Freedman, Wang; SIGCOMM 2010) —
// together with everything needed to reproduce the paper's evaluation:
// a ternary flow-space algebra, a TCAM-semantics rule table, a
// discrete-event network simulator, a wire-mode concurrent prototype, an
// Ethane/NOX-style reactive baseline, and synthetic workload generators.
//
// DIFANE keeps all packets in the data plane: the controller partitions
// the flow space across authority switches with a decision-tree algorithm;
// cache misses at ingress switches are redirected — as data packets — to
// the responsible authority switch, which both forwards the packet and
// installs wildcard-safe cache rules back at the ingress switch.
//
// # Quick start
//
//	spec := difane.CampusNetwork(1, difane.ScaleTest)
//	auths := difane.PlaceAuthorities(spec.Graph, 3)
//	net, err := difane.New(spec.Graph, auths, spec.Policy, difane.Config{})
//	if err != nil { ... }
//	flows := difane.GenerateTraffic(spec, difane.TrafficConfig{Flows: 10000, Seed: 2})
//	difane.RunTrace(net, flows, 60)
//	fmt.Println(net.M.FirstPacketDelay.Percentile(99))
//
// The deeper packages stay internal; this package re-exports the stable
// surface via type aliases, so the full method sets of the underlying
// types are available to callers. It keeps only what its users call (the
// examples, cmd/, the Example functions and README): `make unused` fails
// on a name that loses its last user.
package difane

import (
	"io"

	"difane/internal/baseline"
	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/policyio"
	"difane/internal/scencheck"
	"difane/internal/subscriber"
	"difane/internal/telemetry"
	"difane/internal/topo"
	"difane/internal/wire"
	"difane/internal/workload"
)

// --- Flow-space model --------------------------------------------------------

// Rule is a prioritized ternary rule (higher Priority wins, ties break
// toward lower ID).
type Rule = flowspace.Rule

// Match is a ternary predicate over the header tuple.
type Match = flowspace.Match

// Key is a concrete header tuple.
type Key = flowspace.Key

// Action is what a rule does with matching packets.
type Action = flowspace.Action

// Header field identifiers, the index of a field in a Key.
const (
	FIPProto = flowspace.FIPProto
	FIPSrc   = flowspace.FIPSrc
	FIPDst   = flowspace.FIPDst
	FTPDst   = flowspace.FTPDst
)

// Action kinds.
const (
	ActDrop    = flowspace.ActDrop
	ActForward = flowspace.ActForward
)

// MatchAll returns the match covering the entire flow space.
func MatchAll() Match { return flowspace.MatchAll() }

// Evaluate returns the highest-priority rule matching k, as the reference
// single-table semantics.
func Evaluate(rules []Rule, k Key) (Rule, bool) { return flowspace.EvalTable(rules, k) }

// --- Topology ----------------------------------------------------------------

// Graph is a switch-level topology.
type Graph = topo.Graph

// NodeID identifies a switch in a Graph.
type NodeID = topo.NodeID

// NewGraph returns an empty topology.
func NewGraph() *Graph { return topo.NewGraph() }

// LinearTopology builds a chain of n switches.
func LinearTopology(n int, latency float64) *Graph { return topo.Linear(n, latency) }

// --- DIFANE ------------------------------------------------------------------

// Config tunes a simulated DIFANE deployment.
type Config = core.NetworkConfig

// PartitionConfig tunes the flow-space partitioner.
type PartitionConfig = core.PartitionConfig

// Partition is one flow-space region with its clipped rules.
type Partition = core.Partition

// Assignment maps partitions onto authority switches.
type Assignment = core.Assignment

// Network is a simulated DIFANE deployment.
type Network = core.Network

// Controller is DIFANE's central controller.
type Controller = core.Controller

// CacheStrategy picks the cache-rule generation scheme.
type CacheStrategy = core.CacheStrategy

// Measurements aggregates a run's recorded statistics.
type Measurements = core.Measurements

// Cache-rule generation strategies.
const (
	StrategyCover     = core.StrategyCover
	StrategyDependent = core.StrategyDependent
	StrategyExact     = core.StrategyExact
)

// New builds a simulated DIFANE network over the topology with the given
// authority switches and global policy.
func New(g *Graph, authorities []uint32, policy []Rule, cfg Config) (*Network, error) {
	return core.NewNetwork(g, authorities, policy, cfg)
}

// NewController attaches a controller to a network.
func NewController(n *Network) *Controller { return core.NewController(n) }

// BuildPartitions runs the decision-tree partitioner.
func BuildPartitions(rules []Rule, cfg PartitionConfig) []Partition {
	return core.BuildPartitions(rules, cfg)
}

// Assign distributes partitions across authority switches.
func Assign(parts []Partition, authorities []uint32) (Assignment, error) {
	return core.Assign(parts, authorities)
}

// PlaceAuthorities picks k well-spread authority switches.
func PlaceAuthorities(g *Graph, k int) []uint32 { return core.PlaceAuthorities(g, k) }

// --- Crash recovery ----------------------------------------------------------

// RecoveryReport summarizes what NewControllerFromJournal had to repair.
type RecoveryReport = core.RecoveryReport

// NewControllerFromJournal recovers a controller from a journal written
// by a previous incarnation: its state is loaded, the epoch is bumped to
// fence the dead controller, and the live switch tables are reconciled
// against the recovered assignment instead of blindly reinstalled.
func NewControllerFromJournal(n *Network, dir string) (*Controller, RecoveryReport, error) {
	return core.NewControllerFromJournal(n, dir)
}

// CompactPolicy removes shadowed (dead) rules without changing semantics.
func CompactPolicy(rules []Rule) (kept []Rule, removedIDs []uint64) {
	return core.CompactPolicy(rules)
}

// ParsePolicy reads a policy in the policyio text format (see
// internal/policyio's package comment for the grammar).
func ParsePolicy(r io.Reader) ([]Rule, error) { return policyio.Parse(r) }

// WritePolicy serializes a policy in the text format ParsePolicy reads.
func WritePolicy(w io.Writer, rules []Rule) error { return policyio.Write(w, rules) }

// --- Baseline ----------------------------------------------------------------

// BaselineConfig tunes the Ethane/NOX-style reactive baseline.
type BaselineConfig = baseline.Config

// BaselineNetwork is a reactive-controller deployment.
type BaselineNetwork = baseline.Network

// NewBaseline builds the reactive baseline over the topology.
func NewBaseline(g *Graph, policy []Rule, cfg BaselineConfig) (*BaselineNetwork, error) {
	return baseline.NewNetwork(g, policy, cfg)
}

// --- Workloads ---------------------------------------------------------------

// Spec bundles a synthetic evaluation network.
type Spec = workload.Spec

// Flow is one generated traffic flow.
type Flow = workload.Flow

// TrafficConfig tunes the trace generator.
type TrafficConfig = workload.TrafficConfig

// NetworkScale shrinks canonical networks for tests vs benches.
type NetworkScale = workload.NetworkScale

// ScaleTest is the canonical networks' test scale.
const ScaleTest = workload.ScaleTest

// The four canonical evaluation networks.
func CampusNetwork(seed int64, s NetworkScale) *Spec { return workload.CampusNetwork(seed, s) }

// VPNNetwork approximates the provider VPN network.
func VPNNetwork(seed int64, s NetworkScale) *Spec { return workload.VPNNetwork(seed, s) }

// IPTVNetwork approximates the IPTV network.
func IPTVNetwork(seed int64, s NetworkScale) *Spec { return workload.IPTVNetwork(seed, s) }

// ISPNetwork approximates the ISP backbone.
func ISPNetwork(seed int64, s NetworkScale) *Spec { return workload.ISPNetwork(seed, s) }

// GenerateTraffic builds a Zipf-popularity flow trace over a spec.
func GenerateTraffic(spec *Spec, cfg TrafficConfig) []Flow {
	return workload.GenerateTraffic(spec, cfg)
}

// UniformTraffic builds an all-new-flows trace (worst case for caching).
func UniformTraffic(spec *Spec, cfg TrafficConfig) []Flow {
	return workload.UniformTraffic(spec, cfg)
}

// WriteTrace archives a flow trace in a replayable text format.
func WriteTrace(w io.Writer, flows []Flow) error { return workload.WriteTrace(w, flows) }

// ReadTrace loads a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Flow, error) { return workload.ReadTrace(r) }

// --- Wire mode ---------------------------------------------------------------

// Cluster is a wire-mode DIFANE deployment (real goroutines and framed
// control connections).
type Cluster = wire.Cluster

// ClusterConfig sizes a wire-mode deployment.
type ClusterConfig = wire.ClusterConfig

// BFDConfig tunes wire mode's BFD-style failure detector, and with it how
// long an authority may leave a redirect unanswered.
type BFDConfig = wire.BFDConfig

// HAConfig sizes wire mode's replicated controller: Replicas ≥ 2 turns on
// journal log shipping and automatic leader election.
type HAConfig = wire.HAConfig

// HAStatus is the failure-detection and controller-HA report served at
// the telemetry endpoint's /ha and rendered by `difanectl ha`.
type HAStatus = wire.HAStatus

// WireDeployment adapts a wire-mode Cluster to the Deployment interface.
type WireDeployment = wire.Deployment

// NewCluster builds and starts a wire-mode cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return wire.NewCluster(cfg) }

// NewWireDeployment builds a wire-mode cluster and wraps it as a
// Deployment, so traces drive it like the simulated backends.
func NewWireDeployment(cfg ClusterConfig) (*WireDeployment, error) {
	return wire.NewDeployment(cfg)
}

// --- Telemetry ---------------------------------------------------------------

// TelemetryConfig tunes a deployment's observability layer: whether the
// flight recorder starts enabled, the per-node trace ring capacity, and
// the optional HTTP endpoint serving /metrics, /vars, /trace, /status,
// and /debug/pprof.
type TelemetryConfig = wire.TelemetryConfig

// TelemetrySnapshot is one scrape of a deployment's metric registry plus
// its flight-recorder accounting.
type TelemetrySnapshot = telemetry.Snapshot

// --- Drivers -----------------------------------------------------------------

// Deployment is the uniform driving surface of every backend — the
// simulated DIFANE network, the reactive baseline, and wire mode — letting
// traces and tools drive any of them interchangeably: inject packets, run
// to a horizon, read the measurements, release the resources.
//
// For the simulated backends, `at` is virtual time and Run drives the
// event loop to the horizon; in wire mode, injections happen immediately
// in real time and Run waits (at most horizon seconds) for in-flight
// packets to reach a terminal point. Close is idempotent.
//
// Telemetry returns one scrape of the backend's metric registry plus its
// flight recorder's accounting. All three backends register the same
// difane_* measurement and trace series (a name means the same thing on
// each) and carry the same recorder: the simulated ones stamp events with
// virtual time, wire mode with wall time. Latency summaries come from
// fixed-size histograms: quantiles read up to 3.2% high, count and sum are
// exact.
type Deployment interface {
	InjectPacket(at float64, ingress uint32, k Key, size int, seq uint64)
	InjectBatch(batch []PacketIn)
	Run(horizon float64)
	Measurements() *Measurements
	Telemetry() *TelemetrySnapshot
	Close() error
}

// PacketIn is one packet handed to a Deployment: InjectPacket's argument
// tuple in struct form, so callers can hand whole bursts to a backend in
// one InjectBatch call — in wire mode each ingress's packets of a batch
// are written into its injection ring under one lock.
type PacketIn = core.PacketIn

// runTraceBatch sizes the chunks RunTrace hands to InjectBatch.
const runTraceBatch = 256

// RunTrace injects every packet of every flow into the network in bursts
// and runs the simulation until horizon seconds.
func RunTrace(n Deployment, flows []Flow, horizon float64) {
	batch := make([]PacketIn, 0, runTraceBatch)
	for _, f := range flows {
		for p := 0; p < f.Packets; p++ {
			at := f.Start + float64(p)*f.Gap
			if at > horizon {
				break
			}
			batch = append(batch, PacketIn{
				At: at, Ingress: f.Ingress, Key: f.Key, Size: f.Size, Seq: uint64(p),
			})
			if len(batch) == cap(batch) {
				n.InjectBatch(batch)
				batch = batch[:0]
			}
		}
	}
	n.InjectBatch(batch)
	n.Run(horizon)
}

// --- Differential verification -----------------------------------------------

// Scenario is a seeded, deterministic differential-test scenario: a
// topology, a policy, and a schedule of packets, policy updates, and
// faults.
type Scenario = scencheck.Scenario

// ScenarioConfig tunes scenario generation.
type ScenarioConfig = scencheck.Config

// CheckOptions selects which backends a differential check replays.
type CheckOptions = scencheck.Options

// CheckResult is the outcome of one differential check.
type CheckResult = scencheck.Result

// CheckScenario replays a scenario through the selected deployments and
// diffs every packet verdict against the reference oracle, plus the
// accounting, epoch-fencing, cache-soundness, and convergence invariants.
func CheckScenario(sc Scenario, opt CheckOptions) *CheckResult { return scencheck.Check(sc, opt) }

// CheckSeed generates and checks one seed.
func CheckSeed(seed int64, cfg ScenarioConfig, opt CheckOptions) *CheckResult {
	return scencheck.CheckSeed(seed, cfg, opt)
}

// ShrinkScenario greedily minimizes a failing scenario while it keeps
// failing, for compact bug repros.
func ShrinkScenario(sc Scenario, opt CheckOptions) Scenario { return scencheck.Shrink(sc, opt) }

// --- Subscriber-scale soaking -------------------------------------------------

// SoakConfig tunes a soak run: the engine, the phase script, the verdict
// sampling rate, and the wall-clock budget.
type SoakConfig = subscriber.SoakConfig

// SoakReport is a finished soak: phase summaries, telemetry time series,
// sampled-verdict divergences, and the accounting audit.
type SoakReport = subscriber.Report

// RunSoak streams the subscriber workload through a live wire deployment,
// sampling ~1-in-N packet verdicts against the oracle and reporting cache
// miss rate, TCAM occupancy, and redirect load as time series per phase.
func RunSoak(d *WireDeployment, spec *Spec, cfg SoakConfig) (*SoakReport, error) {
	return subscriber.RunSoak(d, spec, cfg)
}
