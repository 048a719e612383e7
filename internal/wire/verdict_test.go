package wire

import (
	"testing"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/proto"
)

// verdictCluster boots five switches with one authority, 2, under policy.
func verdictCluster(t *testing.T, strategy core.CacheStrategy, policy []flowspace.Rule) (*Cluster, *Deployment) {
	t.Helper()
	c := startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2},
		Policy:      policy,
		Strategy:    strategy,
	}))
	return c, Deploy(c)
}

// A count rule delivers to its egress, as the oracle, the simulator and
// the baseline have it: on the miss path, answered by the authority switch,
// and once its cover is cached at the ingress.
func TestCountRuleDelivers(t *testing.T) {
	policy := testPolicy()
	policy[0].Action.Kind = flowspace.ActCount // port 80, egress 4
	c, d := verdictCluster(t, core.StrategyCover, policy)
	const per = 8
	for window := 0; window < 2; window++ {
		for i := uint32(0); i < per; i++ {
			d.InjectPacket(0, 0, httpHeader(uint32(window)<<8|i).Key(), 100, 0)
		}
		d.Run(5)
		if m := c.Measurements(); m.Delivered != uint64(per*(window+1)) || m.Drops.Hole != 0 {
			t.Fatalf("window %d: delivered %d of %d, drops %+v", window, m.Delivered, per*(window+1), m.Drops)
		}
		for i := 0; i < per; i++ {
			dl := awaitDelivery(t, c)
			if dl.Egress != 4 || (window == 1 && dl.Detour) {
				t.Fatalf("window %d: delivered at %d (detour %v), want 4 from the cache in the second window",
					window, dl.Egress, dl.Detour)
			}
		}
	}
}

// A packet that no table at its ingress matches, its partition rules
// withdrawn, is unreachable, as on the simulator: not a policy hole.
func TestUnmatchedIngressIsUnreachable(t *testing.T) {
	c, d := verdictCluster(t, core.StrategyCover, testPolicy())
	for _, r := range c.TableRules(0, proto.TablePartition) {
		if err := c.InstallRule(0, proto.FlowMod{Table: proto.TablePartition, Op: proto.OpDelete, Rule: r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.barrier(c.ctx, 0); err != nil {
		t.Fatal(err)
	}
	d.InjectPacket(0, 0, httpHeader(1).Key(), 100, 0)
	d.Run(5)
	if m := c.Measurements(); m.Drops.Unreachable != 1 || m.Drops.Hole != 0 {
		t.Fatalf("drops %+v, want one unreachable", m.Drops)
	}
}

// Every redirect an authority switch answers counts in its
// difane_switch_authority_hits_total, the series the redirect-imbalance
// rule reads.
func TestAuthorityHitsCountRedirectsAnswered(t *testing.T) {
	c, d := verdictCluster(t, core.StrategyExact, testPolicy())
	hits := func() float64 {
		total := 0.0
		for _, m := range c.Telemetry().Metrics {
			if m.Name == "difane_switch_authority_hits_total" {
				for _, p := range m.Points {
					total += p.Value
				}
			}
		}
		return total
	}
	before := hits()
	const misses = 40
	for i := uint32(0); i < misses; i++ {
		ingress := []uint32{0, 1, 3, 4}[i%4]
		d.InjectPacket(0, ingress, httpHeader(1000+i).Key(), 100, 0)
	}
	d.Run(5)
	m := c.Measurements()
	if m.Redirects != misses || m.Delivered != misses {
		t.Fatalf("%d never-repeated misses: %d redirects, %d delivered", misses, m.Redirects, m.Delivered)
	}
	if got := hits() - before; got != misses {
		t.Fatalf("authority hits rose by %v, want the %d redirects answered", got, misses)
	}
}
