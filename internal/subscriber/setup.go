package subscriber

import (
	"difane/internal/core"
	"difane/internal/topo"
	"difane/internal/wire"
	"difane/internal/workload"
)

// Setup describes the deterministic soak test-bed: a chain of edge
// switches (every one an ingress and an egress) carrying a
// ClassBench-style policy, with a subset hosting the authority rules.
// The same Setup always builds the same spec and cluster, so a soak run
// is reproducible from (Setup, SoakConfig) alone.
type Setup struct {
	// Switches is the edge switch count (default 8).
	Switches int
	// Rules is the policy size (default 96).
	Rules int
	// CacheCapacity bounds each ingress TCAM (default 0: unlimited).
	// Small values make churn phases evict visibly.
	CacheCapacity int
	// QueueDepth sizes the wire rings (default 4096).
	QueueDepth int
	// Seed drives the policy generator.
	Seed int64
	// Telemetry configures the wire cluster's ops surface (optional).
	Telemetry wire.TelemetryConfig
}

func (s Setup) withDefaults() Setup {
	if s.Switches < 2 {
		s.Switches = 8
	}
	if s.Rules <= 0 {
		s.Rules = 96
	}
	if s.QueueDepth <= 0 {
		s.QueueDepth = 4096
	}
	return s
}

// Spec builds the test-bed's workload spec.
func (s Setup) Spec() *workload.Spec {
	s = s.withDefaults()
	g := topo.Linear(s.Switches, 0.0001)
	edges := make([]uint32, s.Switches)
	for i := range edges {
		edges[i] = uint32(i)
	}
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: s.Rules, MaxDepth: 4, PortRangeFrac: 0.1, DropFrac: 0.1,
		Egresses: edges, Seed: s.Seed,
	})
	return &workload.Spec{
		Name: "subscriber-soak", Graph: g, Edges: edges, Policy: policy,
		Describe: "chain of BNG edges, ClassBench ACL policy",
	}
}

// authorities places two authority switches the way the perf harness
// does: quarter points of the chain.
func (s Setup) authorities() []uint32 {
	if s.Switches >= 4 {
		return []uint32{uint32(s.Switches / 4), uint32(3 * s.Switches / 4)}
	}
	return []uint32{0}
}

// Deploy builds the wire cluster for the test-bed and returns it with
// the spec it routes. The caller closes the deployment.
func (s Setup) Deploy() (*wire.Deployment, *workload.Spec, error) {
	s = s.withDefaults()
	spec := s.Spec()
	d, err := wire.NewDeployment(wire.ClusterConfig{
		Switches:      spec.Edges,
		Authorities:   s.authorities(),
		Policy:        spec.Policy,
		Strategy:      core.StrategyCover,
		CacheCapacity: s.CacheCapacity,
		QueueDepth:    s.QueueDepth,
		Telemetry:     s.Telemetry,
		// A soak saturates the box it runs on and kills nothing: a
		// data-plane stall must not read as every switch dying at once.
		BFD: wire.SlackBFD,
	})
	if err != nil {
		return nil, nil, err
	}
	return d, spec, nil
}
