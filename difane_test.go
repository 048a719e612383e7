package difane_test

import (
	"strings"
	"testing"

	"difane"
	"difane/internal/core"
	"difane/internal/workload"
)

// TestPublicAPIQuickstart walks the README quickstart path end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	spec := difane.CampusNetwork(1, difane.ScaleTest)
	auths := difane.PlaceAuthorities(spec.Graph, 3)
	if len(auths) != 3 {
		t.Fatalf("authorities = %v", auths)
	}
	net, err := difane.New(spec.Graph, auths, spec.Policy, difane.Config{
		Partition: difane.PartitionConfig{MaxRulesPerPartition: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	flows := difane.GenerateTraffic(spec, difane.TrafficConfig{
		Flows: 2000, Rate: 2000, Seed: 2,
	})
	difane.RunTrace(net, flows, 30)

	delivered := net.M.Delivered + net.M.Drops.Policy
	if delivered == 0 {
		t.Fatal("no traffic handled")
	}
	if net.M.Drops.Hole != 0 || net.M.Drops.Unreachable != 0 {
		t.Fatalf("unexpected losses: %+v", net.M.Drops)
	}
	if net.M.FirstPacketDelay.N() == 0 {
		t.Fatal("no first-packet delays recorded")
	}
}

// TestBaselineComparableInterface drives the same trace through DIFANE and
// the baseline via the shared injector interface.
func TestBaselineComparableInterface(t *testing.T) {
	spec := difane.VPNNetwork(3, difane.ScaleTest)
	flows := difane.GenerateTraffic(spec, difane.TrafficConfig{Flows: 500, Rate: 1000, Seed: 4})

	auths := difane.PlaceAuthorities(spec.Graph, 2)
	dn, err := difane.New(spec.Graph, auths, spec.Policy, difane.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bn, err := difane.NewBaseline(spec.Graph, spec.Policy, difane.BaselineConfig{
		ControllerNode: uint32(spec.Graph.Nodes()[0]),
		SetupOverhead:  0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []difane.Deployment{dn, bn} {
		difane.RunTrace(n, flows, 30)
	}
	// Both must complete the same setups; the baseline must be slower on
	// first packets (it pays the controller round trip).
	if dn.M.SetupsCompleted == 0 || bn.M.SetupsCompleted == 0 {
		t.Fatal("both systems must complete setups")
	}
	if dn.M.FirstPacketDelay.Mean() >= bn.M.FirstPacketDelay.Mean() {
		t.Fatalf("DIFANE first-packet delay (%v) must beat the baseline (%v)",
			dn.M.FirstPacketDelay.Mean(), bn.M.FirstPacketDelay.Mean())
	}
}

// TestPartitioningAPI exercises the partitioner through the facade.
func TestPartitioningAPI(t *testing.T) {
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: 300, MaxDepth: 6, Egresses: []uint32{1}, Seed: 5,
	})
	parts := difane.BuildPartitions(policy, difane.PartitionConfig{MaxRulesPerPartition: 50})
	if len(parts) < 2 {
		t.Fatalf("partitions = %d", len(parts))
	}
	a, err := difane.Assign(parts, []uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Primary) != len(parts) {
		t.Fatal("assignment size mismatch")
	}
}

// TestEvaluateFacade checks the rule evaluation helper.
func TestEvaluateFacade(t *testing.T) {
	rules := []difane.Rule{
		{ID: 1, Priority: 10,
			Match:  difane.MatchAll().WithExact(difane.FTPDst, 80),
			Action: difane.Action{Kind: difane.ActForward, Arg: 2}},
		{ID: 2, Priority: 0, Match: difane.MatchAll(),
			Action: difane.Action{Kind: difane.ActDrop}},
	}
	var k difane.Key
	k[difane.FTPDst] = 80
	r, ok := difane.Evaluate(rules, k)
	if !ok || r.ID != 1 {
		t.Fatalf("evaluate = %v ok=%v", r, ok)
	}
}

// TestTraceFacadeRoundTrip archives and replays a trace via the facade.
func TestTraceFacadeRoundTrip(t *testing.T) {
	spec := difane.VPNNetwork(5, difane.ScaleTest)
	flows := difane.GenerateTraffic(spec, difane.TrafficConfig{Flows: 50, Seed: 6})
	var buf strings.Builder
	if err := difane.WriteTrace(&buf, flows); err != nil {
		t.Fatal(err)
	}
	again, err := difane.ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(flows) {
		t.Fatalf("round trip %d != %d", len(again), len(flows))
	}
}

// TestPolicyFacade parses, compacts, and writes a policy via the facade.
func TestPolicyFacade(t *testing.T) {
	rules, err := difane.ParsePolicy(strings.NewReader(`
rule 1 prio 10 ip_src=10.0.0.0/8 -> forward(1)
rule 2 prio 5 ip_src=10.1.0.0/16 -> drop
rule 3 prio 0 -> drop
`))
	if err != nil {
		t.Fatal(err)
	}
	kept, removed := difane.CompactPolicy(rules)
	if len(removed) != 1 || removed[0] != 2 {
		t.Fatalf("rule 2 is shadowed by rule 1 and must be removed: %v", removed)
	}
	var buf strings.Builder
	if err := difane.WritePolicy(&buf, kept); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rule 1") {
		t.Fatalf("written policy:\n%s", buf.String())
	}
}

// TestEvictionChoiceFacade drives a capacity-limited cache with LFU.
func TestEvictionChoiceFacade(t *testing.T) {
	g := difane.LinearTopology(3, 0.001)
	policy := []difane.Rule{{
		ID: 1, Priority: 1, Match: difane.MatchAll(),
		Action: difane.Action{Kind: difane.ActForward, Arg: 2},
	}}
	n, err := difane.New(g, []uint32{1}, policy, difane.Config{
		Strategy:      difane.StrategyExact,
		CacheCapacity: 2,
		CacheEviction: core.EvictLFU,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var k difane.Key
		k[difane.FIPSrc] = uint64(i)
		n.InjectPacket(float64(i)*0.1, 0, k, 100, 0)
	}
	n.Run(5)
	if n.CacheEntries() > 2 {
		t.Fatalf("cache exceeded capacity: %d", n.CacheEntries())
	}
	if n.M.Delivered != 10 {
		t.Fatalf("delivered = %d", n.M.Delivered)
	}
}

// TestControllerFacade exercises dynamics through the facade.
func TestControllerFacade(t *testing.T) {
	g := difane.LinearTopology(4, 0.001)
	policy := []difane.Rule{{
		ID: 1, Priority: 1, Match: difane.MatchAll(),
		Action: difane.Action{Kind: difane.ActForward, Arg: 3},
	}}
	n, err := difane.New(g, []uint32{1}, policy, difane.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := difane.NewController(n)
	if _, err := c.UpdatePolicy(policy); err != nil {
		t.Fatal(err)
	}
	n.Run(1)
	if c.PolicyVersion != 1 {
		t.Fatalf("policy version = %d", c.PolicyVersion)
	}
}

// TestDeploymentInterfaceAllBackends proves every backend satisfies the
// Deployment interface and can be driven by the same trace loop.
func TestDeploymentInterfaceAllBackends(t *testing.T) {
	spec := difane.CampusNetwork(1, difane.ScaleTest)
	auths := difane.PlaceAuthorities(spec.Graph, 2)
	flows := difane.GenerateTraffic(spec, difane.TrafficConfig{
		Flows: 200, Rate: 2000, Seed: 3,
	})

	deployments := map[string]func() (difane.Deployment, error){
		"sim": func() (difane.Deployment, error) {
			return difane.New(spec.Graph, auths, spec.Policy, difane.Config{})
		},
		"baseline": func() (difane.Deployment, error) {
			return difane.NewBaseline(spec.Graph, spec.Policy, difane.BaselineConfig{
				ControllerNode: auths[0], ControllerRate: 50000,
			})
		},
		"wire": func() (difane.Deployment, error) {
			var ids []uint32
			for _, id := range spec.Graph.Nodes() {
				ids = append(ids, uint32(id))
			}
			return difane.NewWireDeployment(difane.ClusterConfig{
				Switches: ids, Authorities: auths, Policy: spec.Policy,
				QueueDepth: 16384,
			})
		},
	}
	for name, build := range deployments {
		t.Run(name, func(t *testing.T) {
			dep, err := build()
			if err != nil {
				t.Fatal(err)
			}
			difane.RunTrace(dep, flows, 30)
			m := dep.Measurements()
			if m.Delivered+m.Drops.Policy == 0 {
				t.Fatal("no traffic handled")
			}
			if err := dep.Close(); err != nil {
				t.Fatal(err)
			}
			if err := dep.Close(); err != nil {
				t.Fatalf("Close not idempotent: %v", err)
			}
		})
	}

}
