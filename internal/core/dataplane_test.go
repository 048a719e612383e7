package core

import (
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/switchsim"
	"difane/internal/topo"
)

// Every action an ingress classification or an authority answer can name
// maps to one step, the same on every backend: count delivers like forward,
// a packet no table matched is unreachable, and an authority answer never
// redirects again.
func TestStepTable(t *testing.T) {
	act := func(kind flowspace.ActionKind, arg uint32) *flowspace.Rule {
		return &flowspace.Rule{ID: 7, Action: flowspace.Action{Kind: kind, Arg: arg}}
	}
	for _, tc := range []struct {
		name           string
		rule           *flowspace.Rule // nil: nothing matched
		ingress, reply Step
	}{
		{"forward", act(flowspace.ActForward, 4),
			Step{Kind: VerdictDelivered, To: 4}, Step{Kind: VerdictDelivered, To: 4}},
		{"count", act(flowspace.ActCount, 5),
			Step{Kind: VerdictDelivered, To: 5}, Step{Kind: VerdictDelivered, To: 5}},
		{"drop", act(flowspace.ActDrop, 0),
			Step{Kind: VerdictPolicyDrop}, Step{Kind: VerdictPolicyDrop}},
		{"redirect", act(flowspace.ActRedirect, 2),
			Step{Kind: VerdictDelivered, Redirect: true, To: 2}, Step{Kind: VerdictHole}},
		{"controller", act(flowspace.ActController, 0),
			Step{Kind: VerdictHole}, Step{Kind: VerdictHole}},
		{"no match", nil, Step{Kind: VerdictUnreachable}, Step{Kind: VerdictHole}},
	} {
		res := switchsim.Result{Rule: tc.rule, Table: proto.TablePartition, OK: tc.rule != nil}
		if got := IngressStep(&res); got != tc.ingress {
			t.Errorf("%s at the ingress: %+v, want %+v", tc.name, got, tc.ingress)
		}
		var ans MissResult
		if tc.rule != nil {
			ans = MissResult{Rule: *tc.rule, OK: true}
		}
		if got := AnswerStep(&ans); got != tc.reply {
			t.Errorf("%s answered by an authority: %+v, want %+v", tc.name, got, tc.reply)
		}
	}
}

// portPolicy builds a policy over destination ports: each rule sends one
// port to an egress (or drops it, egress < 0), and a default rule sends
// the rest to dflt.
func portPolicy(firstID uint64, dflt uint32, ports map[uint64]int) []flowspace.Rule {
	rules := []flowspace.Rule{{ID: firstID, Priority: 0, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: dflt}}}
	for port, egress := range ports {
		r := flowspace.Rule{ID: firstID + port, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, port),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(egress)}}
		if egress < 0 {
			r.Action = flowspace.Action{Kind: flowspace.ActDrop}
		}
		rules = append(rules, r)
	}
	flowspace.SortRules(rules)
	return rules
}

// Traffic runs without a pause across a live update that moves the policy,
// the partitions and their authority switches, over links slow enough that
// redirects are in flight at the commit: every packet gets the old or the
// new policy's verdict, no ingress returns to the old policy once it has
// given a packet the new one's, and nothing is lost. A redirect sent before
// the commit is answered by the generation its ingress sent it under, even
// where the new one hosts its region on another authority switch.
func TestConsistentUpdateUnderTraffic(t *testing.T) {
	oldPol := portPolicy(1, 3, map[uint64]int{80: 4, 22: -1, 443: 5, 25: 4})
	newPol := portPolicy(100, 4, map[uint64]int{80: 5, 443: -1, 22: 3, 8080: 3})
	n, err := NewNetwork(topo.Linear(6, 0.001), []uint32{1, 2, 5}, oldPol, NetworkConfig{
		Strategy:  StrategyExact,
		Partition: PartitionConfig{MaxRulesPerPartition: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := n.Assignment()
	switchAt, cleanupAt, err := NewController(n).UpdatePolicyConsistent(newPol)
	if err != nil {
		t.Fatal(err)
	}
	got := map[flowspace.Key]int{} // egress, or −1 for a policy drop
	n.Observer = func(ev VerdictEvent) {
		switch ev.Kind {
		case VerdictDelivered:
			got[ev.Key] = int(ev.Egress)
		case VerdictPolicyDrop:
			got[ev.Key] = -1
		default:
			t.Errorf("packet %v: %s", ev.Key, ev.Kind)
		}
	}

	// Two ingresses, one of them an authority switch, each sending its own
	// numbered packets from before the install to after the cleanup: the
	// number is in the source address, so under the exact strategy every
	// packet is a miss, and the ports cycle over the regions that move. At
	// one packet every 0.5 ms none of them is in flight to a region that
	// moves at the commit; every 0.25 ms some are.
	const gap = 0.00025
	ingresses := []uint32{0, 2}
	ports := []uint64{80, 22, 443, 25, 8080, 9}
	sent := make([][]flowspace.Key, len(ingresses))
	for i, in := range ingresses {
		for seq := uint32(0); float64(seq)*gap < cleanupAt+0.05; seq++ {
			k := flowKey(in<<24|seq, ports[seq%uint32(len(ports))])
			n.InjectPacket(float64(seq)*gap, in, k, 100, 0)
			sent[i] = append(sent[i], k)
		}
	}
	n.Run(cleanupAt + 1)

	if after := n.Assignment(); len(after.Partitions) == len(before.Partitions) {
		t.Fatalf("the update kept %d partitions; it is to move them", len(after.Partitions))
	}
	verdict := func(policy []flowspace.Rule, k flowspace.Key) int {
		if r, ok := flowspace.EvalTable(policy, k); ok && r.Action.Kind == flowspace.ActForward {
			return int(r.Action.Arg)
		}
		return -1
	}
	for i, keys := range sent {
		sawNew := -1
		for seq, k := range keys {
			g, ok := got[k]
			o, nw := verdict(oldPol, k), verdict(newPol, k)
			switch {
			case !ok:
				t.Fatalf("ingress %d packet %d reached no verdict", ingresses[i], seq)
			case g != o && g != nw:
				t.Fatalf("ingress %d packet %d (port %d): verdict %d, want old %d or new %d",
					ingresses[i], seq, k[flowspace.FTPDst], g, o, nw)
			case o == nw:
			case g == nw:
				if sawNew < 0 {
					sawNew = seq
				}
			case sawNew >= 0:
				t.Fatalf("ingress %d packet %d got the old policy's verdict after packet %d got the new one's",
					ingresses[i], seq, sawNew)
			}
		}
		if at := float64(sawNew) * gap; sawNew < 0 || at < switchAt || at > switchAt+0.01 {
			t.Fatalf("ingress %d moved to the new policy at packet %d, not at the commit (%.3f s)", ingresses[i], sawNew, switchAt)
		}
	}
	if lost := n.M.Drops.Lost(); lost != 0 {
		t.Fatalf("%d packets lost across the update: %+v", lost, n.M.Drops)
	}
}

// A cover minted under the generation before a commit, for a redirect sent
// before it, lands at the ingress after the commit has flushed its cache:
// the packet that asked follows the old policy, and the install is dropped,
// so the packets after the commit follow the new one.
func TestInstallFromBeforeTheCommitIsDropped(t *testing.T) {
	n, err := NewNetwork(topo.Linear(4, 0.001), []uint32{3}, []flowspace.Rule{{ID: 1, Priority: 1,
		Match: flowspace.MatchAll(), Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 2}}},
		NetworkConfig{Strategy: StrategyCover})
	if err != nil {
		t.Fatal(err)
	}
	switchAt, cleanupAt, err := NewController(n).UpdatePolicyConsistent(denyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	n.InjectPacket(switchAt-0.001, 0, flowKey(1, 80), 100, 0) // answered 3 ms on, its cover back 3 ms later
	n.Run(switchAt + 0.01)
	if n.M.Delivered != 1 || n.M.Drops.Policy != 0 {
		t.Fatalf("the packet sent before the commit: delivered %d, drops %+v; want the old policy's delivery", n.M.Delivered, n.M.Drops)
	}
	n.InjectPacket(switchAt+0.01, 0, flowKey(2, 80), 100, 0)
	n.Run(cleanupAt + 1)
	if n.M.Delivered != 1 || n.M.Drops.Policy != 1 {
		t.Fatalf("the packet sent after the commit: delivered %d, drops %+v; want the new policy's drop", n.M.Delivered, n.M.Drops)
	}
}

// An update that is not consistent replaces the authority rules in place,
// under the running band: a redirect in flight across its commit is
// answered by the rules now in the table, not lost as a hole.
func TestInconsistentUpdateAnswersRedirectsInFlight(t *testing.T) {
	n, c := consistentNet(t)
	at, err := c.UpdatePolicy(denyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	n.InjectPacket(at-0.0005, 0, flowKey(1, 80), 100, 0) // reaches the authority 0.5 ms after the commit
	n.Run(at + 1)
	if n.M.Drops.Lost() != 0 || n.M.Drops.Policy != 1 {
		t.Fatalf("drops %+v, want the new policy's drop", n.M.Drops)
	}
}
