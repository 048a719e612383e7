package core

import (
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/topo"
)

func consistentNet(t *testing.T) (*Network, *Controller) {
	t.Helper()
	g := topo.Linear(4, 0.001)
	permit := []flowspace.Rule{{
		ID: 1, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 3},
	}}
	n, err := NewNetwork(g, []uint32{1}, permit, NetworkConfig{Strategy: StrategyExact})
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(n)
	c.PolicyPushDelay = 0.1
	return n, c
}

func denyPolicy() []flowspace.Rule {
	return []flowspace.Rule{{
		ID: 2, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActDrop},
	}}
}

func TestConsistentUpdateSwitchesPolicy(t *testing.T) {
	n, c := consistentNet(t)
	switchAt, cleanupAt, err := c.UpdatePolicyConsistent(denyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if switchAt <= n.Eng.Now() || cleanupAt <= switchAt {
		t.Fatalf("phase times out of order: %v %v", switchAt, cleanupAt)
	}
	// Before the switch: permitted. After: dropped.
	n.InjectPacket(switchAt-0.05, 0, flowKey(1, 80), 100, 0)
	n.InjectPacket(switchAt+0.05, 0, flowKey(2, 80), 100, 0)
	n.Run(cleanupAt + 1)
	if n.M.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (pre-switch flow)", n.M.Delivered)
	}
	if n.M.Drops.Policy != 1 {
		t.Fatalf("policy drops = %d, want 1 (post-switch flow)", n.M.Drops.Policy)
	}
	if c.PolicyVersion != 1 {
		t.Fatalf("policy version = %d", c.PolicyVersion)
	}
}

func TestConsistentUpdateNoHoleWindow(t *testing.T) {
	// Inject a continuous stream across all three phases: every packet
	// must be either delivered (old policy) or policy-dropped (new) —
	// never lost to a hole or unreachable authority.
	n, c := consistentNet(t)
	_, cleanupAt, err := c.UpdatePolicyConsistent(denyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	for at := 0.0; at < cleanupAt+0.5; at += 0.004 {
		n.InjectPacket(at, 0, flowKey(uint32(1000+seq), 80), 100, 0)
		seq++
	}
	n.Run(cleanupAt + 2)
	handled := n.M.Delivered + n.M.Drops.Policy
	if handled != seq {
		t.Fatalf("handled %d of %d flows (drops %+v)", handled, seq, n.M.Drops)
	}
	if n.M.Drops.Hole != 0 || n.M.Drops.Unreachable != 0 {
		t.Fatalf("consistent update must not lose packets: %+v", n.M.Drops)
	}
}

func TestConsistentUpdateCleansOldGeneration(t *testing.T) {
	n, c := consistentNet(t)
	authSw := n.Switches[1]
	before := authSw.Table(proto.TableAuthority).Len()
	if before == 0 {
		t.Fatal("authority must hold the initial rules")
	}
	switchAt, cleanupAt, err := c.UpdatePolicyConsistent(denyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	// Between install and cleanup both generations coexist.
	n.Run(switchAt + 0.01)
	during := authSw.Table(proto.TableAuthority).Len()
	if during <= before {
		t.Fatalf("both generations must coexist mid-update: %d then %d", before, during)
	}
	n.Run(cleanupAt + 0.01)
	after := authSw.Table(proto.TableAuthority).Len()
	if after != 1 {
		t.Fatalf("after cleanup the authority must hold only the new rule: %d", after)
	}
}

func TestConsistentUpdateVersionsAreSequential(t *testing.T) {
	n, c := consistentNet(t)
	for i := 0; i < 3; i++ {
		_, cleanupAt, err := c.UpdatePolicyConsistent(denyPolicy())
		if err != nil {
			t.Fatal(err)
		}
		n.Run(cleanupAt + 0.1)
	}
	if c.PolicyVersion != 3 {
		t.Fatalf("version = %d", c.PolicyVersion)
	}
}

// The authority switch's TCAM answers the miss, and between phases 1 and 3
// it holds two generations. A handler must see its own band alone: before
// the switch a staged rule answers nothing, however high its priority, and
// after it the rule it replaces answers nothing either.
func TestConsistentUpdateAnswersFromOwnGeneration(t *testing.T) {
	n, c := consistentNet(t)
	deny := denyPolicy()
	deny[0].Priority = 100 // would beat the running permit in a shared lookup
	switchAt, cleanupAt, err := c.UpdatePolicyConsistent(deny)
	if err != nil {
		t.Fatal(err)
	}
	installAt := switchAt - c.PolicyPushDelay
	mid := (installAt + switchAt) / 2
	n.InjectPacket(mid, 0, flowKey(1, 80), 100, 0)
	n.Run(mid + 0.04)
	if got := n.Switches[1].Table(proto.TableAuthority).Len(); got != 2 {
		t.Fatalf("authority table holds %d rules mid-update, want both generations", got)
	}
	if n.M.Delivered != 1 || n.M.Drops.Policy != 0 {
		t.Fatalf("a miss before the switch must follow the old policy: delivered %d, drops %+v", n.M.Delivered, n.M.Drops)
	}
	n.InjectPacket(switchAt+0.01, 0, flowKey(2, 80), 100, 0) // old rule not yet collected
	n.Run(cleanupAt - 0.01)
	if got := n.Switches[1].Table(proto.TableAuthority).Len(); got != 2 {
		t.Fatalf("authority table holds %d rules before cleanup, want both generations", got)
	}
	if n.M.Delivered != 1 || n.M.Drops.Policy != 1 || n.M.Drops.Hole != 0 {
		t.Fatalf("a miss after the switch must follow the new policy: delivered %d, drops %+v", n.M.Delivered, n.M.Drops)
	}
	// Each generation's entry counted the one redirect it answered.
	for _, e := range n.Switches[1].Table(proto.TableAuthority).Entries() {
		if e.Packets != 1 {
			t.Fatalf("authority entry %#x matched %d packets, want 1", e.Rule.ID, e.Packets)
		}
	}
}

// A packet that enters at the authority switch itself never reaches
// authorityHandle: the switch's own classification answers it from the
// authority table, and must keep to the running generation's band as well —
// before the switch a staged rule answers nothing, however high its
// priority, and after it the rule it replaces answers nothing either, though
// neither has left the table.
func TestConsistentUpdateAtAuthorityIngress(t *testing.T) {
	for _, tc := range []struct {
		name                string
		priority            int32 // of the staged deny rule
		at                  func(installAt, switchAt float64) float64
		delivered, policyDr uint64
	}{
		{"staged rule answers nothing before the switch", 100,
			func(installAt, switchAt float64) float64 { return (installAt + switchAt) / 2 }, 1, 0},
		{"replaced rule answers nothing after the switch", 1,
			func(_, switchAt float64) float64 { return switchAt + 0.05 }, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, c := consistentNet(t)
			deny := denyPolicy()
			deny[0].Priority = tc.priority
			switchAt, cleanupAt, err := c.UpdatePolicyConsistent(deny)
			if err != nil {
				t.Fatal(err)
			}
			at := tc.at(switchAt-c.PolicyPushDelay, switchAt)
			n.InjectPacket(at, 1, flowKey(1, 80), 100, 0) // ingress 1 is the authority
			n.Run(at + 0.02)
			if at+0.02 >= cleanupAt {
				t.Fatal("the packet must be answered before the old generation is collected")
			}
			if got := n.Switches[1].Table(proto.TableAuthority).Len(); got != 2 {
				t.Fatalf("authority table holds %d rules, want both generations", got)
			}
			if n.M.Redirects != 0 {
				t.Fatalf("%d redirects: the packet was to be answered where it entered", n.M.Redirects)
			}
			if n.M.Delivered != tc.delivered || n.M.Drops.Policy != tc.policyDr {
				t.Fatalf("delivered=%d policyDrops=%d, want %d and %d (drops %+v)",
					n.M.Delivered, n.M.Drops.Policy, tc.delivered, tc.policyDr, n.M.Drops)
			}
		})
	}
}
