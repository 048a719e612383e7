package wire

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/proto"
)

// quarterPolicy splits the source-address space into four quarters, one
// rule each, all forwarding to switch 4: with one rule a partition, four
// partitions of equal rule count.
func quarterPolicy() []flowspace.Rule {
	rules := make([]flowspace.Rule, 4)
	for q := range rules {
		rules[q] = flowspace.Rule{ID: uint64(q + 1), Priority: 1,
			Match:  flowspace.MatchAll().WithPrefix(flowspace.FIPSrc, uint64(q)<<30, 2),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}}
	}
	return rules
}

// rebalanceConfig runs quarterPolicy on authorities 2 and 3, with ingresses
// 0 and 1 and egress 4.
func rebalanceConfig() ClusterConfig {
	return slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2, 3},
		Policy:      quarterPolicy(),
		Strategy:    core.StrategyExact,
		Partition:   core.PartitionConfig{MaxRulesPerPartition: 1},
	})
}

// primaryRegions returns the regions of the partitions whose primary is sw:
// rule-count placement gives each of the two authorities two of the four.
func primaryRegions(t *testing.T, c *Cluster, sw uint32) []flowspace.Match {
	t.Helper()
	a := c.Assignment()
	var regions []flowspace.Match
	for i, p := range a.Partitions {
		if a.Primary[i] == sw {
			regions = append(regions, p.Region)
		}
	}
	if len(a.Partitions) != 4 || len(regions) != 2 {
		t.Fatalf("%d partitions, %d with primary %d: want 4 and 2", len(a.Partitions), len(regions), sw)
	}
	return regions
}

// wave sends count first packets into regions, from ingresses 0 and 1 in
// turn, and runs them to quiescence; seq keeps each wave's flows new.
func wave(d *Deployment, regions []flowspace.Match, seq, count int) {
	for i := 0; i < count; i++ {
		var fill [flowspace.NumFields]uint64
		fill[flowspace.FIPSrc] = uint64(seq)<<16 | uint64(i)
		d.InjectPacket(0, uint32(i%2), regions[i%len(regions)].RandomKeyIn(fill), 100, 0)
	}
	d.Run(5)
}

// authorityHits reads each switch's cumulative count of the redirects its
// authority table answered.
func authorityHits(c *Cluster) map[uint32]uint64 {
	out := make(map[uint32]uint64, len(c.nodes))
	for _, n := range c.nodes {
		out[n.id] = n.sw.Stats.AuthorityHits.Load()
	}
	return out
}

// The wire port of core.TestRebalanceByLoadSpreadsMissTraffic: traffic in
// the two partitions rule-count placement put on one authority is spread
// over both by the load its authority table counted, and the wave after
// the rebalance loses nothing.
func TestRebalanceByLoadSpreadsMissTraffic(t *testing.T) {
	c := startCluster(t, rebalanceConfig())
	d := Deploy(c)
	hot := primaryRegions(t, c, 2)
	wave(d, hot, 1, 40)
	before := authorityHits(c)
	if before[2] != 40 || before[3] != 0 {
		t.Fatalf("first wave: authority hits %d/%d, want 40/0", before[2], before[3])
	}

	if moved := c.RebalanceByLoad(); moved == 0 {
		t.Fatal("the rebalance moved no primary")
	}
	wave(d, hot, 2, 40)
	after := authorityHits(c)
	if d2, d3 := after[2]-before[2], after[3]-before[3]; d2 == 0 || d3 == 0 || d2+d3 != 40 {
		t.Fatalf("second wave: authority hits +%d/+%d, want 40 answered by both", d2, d3)
	}
	if m := c.Measurements(); m.Delivered != 80 || m.Drops != (core.Drops{}) {
		t.Fatalf("delivered %d of 80, drops %+v", m.Delivered, m.Drops)
	}
}

// An authority that is not up hosts no partition after a rebalance, and
// no partition rule redirects to it: one killed, and one the failure
// detector holds dead though its goroutines run (a gray failure).
func TestRebalanceSkipsFailedAuthorities(t *testing.T) {
	for _, how := range []string{"killed", "held-dead"} {
		t.Run(how, func(t *testing.T) {
			c := startCluster(t, rebalanceConfig())
			d := Deploy(c)
			wave(d, primaryRegions(t, c, 3), 1, 10)
			if how == "held-dead" {
				markDeadOnly(c.byID(3))
			} else if !c.KillSwitch(3) {
				t.Fatal("kill failed")
			} else {
				awaitDead(t, c, 3)
			}
			c.RebalanceByLoad()
			a := c.Assignment()
			for i := range a.Partitions {
				if slices.Contains(a.ReplicasFor(i), 3) {
					t.Fatalf("the rebalance placed partition %d on %s switch 3: %v", i, how, a.ReplicasFor(i))
				}
			}
			for _, sw := range []uint32{0, 1, 2, 4} {
				for _, r := range c.TableRules(sw, proto.TablePartition) {
					if r.Action.Kind == flowspace.ActRedirect && r.Action.Arg == 3 {
						t.Fatalf("switch %d redirects to %s switch 3: %+v", sw, how, r)
					}
				}
			}
		})
	}
}

// The wire port of core.TestInvalidateHost: a host's cache entries are
// withdrawn from every switch, another host's stay, and a host no entry
// covers withdraws nothing.
func TestInvalidateHost(t *testing.T) {
	c := startCluster(t, rebalanceConfig())
	d := Deploy(c)
	const moved, other = 777, 888
	for ingress := uint32(0); ingress < 2; ingress++ {
		for _, src := range []uint32{moved, other} {
			d.InjectPacket(0, ingress, httpHeader(src).Key(), 100, 0)
		}
	}
	d.Run(5)
	covering := func(ip uint32) (n int) {
		for _, sw := range c.SwitchIDs() {
			for _, r := range c.TableRules(sw, proto.TableCache) {
				if r.Match.Fields[flowspace.FIPSrc].Matches(uint64(ip)) {
					n++
				}
			}
		}
		return n
	}
	if covering(moved) != 2 || covering(other) != 2 {
		t.Fatalf("cache entries for the hosts before: %d and %d, want 2 each", covering(moved), covering(other))
	}
	if removed := c.InvalidateHost(moved); removed != 2 {
		t.Fatalf("InvalidateHost removed %d, want 2", removed)
	}
	if covering(moved) != 0 || covering(other) != 2 {
		t.Fatalf("cache entries for the hosts after: %d and %d, want 0 and 2", covering(moved), covering(other))
	}
	if removed := c.InvalidateHost(123456); removed != 0 {
		t.Fatalf("invalidating an unrelated host removed %d", removed)
	}
}

// A rebalance is journaled like any commit: the leader's successor resumes
// the rebalanced assignment, routing still pinned, and its Reconcile finds
// every authority rule in place.
func TestRebalanceSurvivesElection(t *testing.T) {
	cfg := rebalanceConfig()
	cfg.HA = HAConfig{Replicas: 3, ElectionDelay: 5 * time.Millisecond}
	c := startCluster(t, cfg)
	d := Deploy(c)
	awaitLeader(t, c)
	wave(d, primaryRegions(t, c, 2), 1, 40)
	if c.RebalanceByLoad() == 0 {
		t.Fatal("the rebalance moved no primary")
	}
	rebalanced, m0, epoch := c.Assignment(), c.Measurements(), c.Epoch()

	if !c.KillController() {
		t.Fatal("KillController failed")
	}
	waitMeasure(t, c, "the election", func(m *core.Measurements) bool { return m.LeaderElections == 1 })
	var st core.ControllerState
	c.control(func(ctl *core.Controller) { st = ctl.State() }) // once the election has seated it
	if st.Epoch <= epoch {
		t.Fatalf("the controller in office runs epoch %d, not past the deposed leader's %d", st.Epoch, epoch)
	}
	if !st.PinRouting {
		t.Fatal("the successor routes by distance: the rebalance's pin was lost")
	}
	if !reflect.DeepEqual(st.Assignment.Primary, rebalanced.Primary) || !reflect.DeepEqual(st.Assignment.Backup, rebalanced.Backup) {
		t.Fatalf("the successor resumed primaries %v, backups %v; the rebalance left %v, %v",
			st.Assignment.Primary, st.Assignment.Backup, rebalanced.Primary, rebalanced.Backup)
	}
	m := c.Measurements()
	if ins, del := m.PolicyRuleInstalls-m0.PolicyRuleInstalls, m.PolicyRuleDeletes-m0.PolicyRuleDeletes; ins != 0 || del != 0 {
		t.Fatalf("the election's Reconcile installed %d and withdrew %d authority rules after the rebalance", ins, del)
	}
}
