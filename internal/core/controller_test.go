package core

import (
	"reflect"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/topo"
)

// ringNet builds a 6-ring with authorities at 1 and 4 and a forward-all
// policy, exact caching so every flow redirects visibly.
func ringNet(t *testing.T) (*Network, *Controller) {
	t.Helper()
	g := topo.NewGraph()
	for i := 0; i < 6; i++ {
		g.AddLink(topo.NodeID(i), topo.NodeID((i+1)%6), 0.001)
	}
	policy := []flowspace.Rule{{
		ID: 1, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 0},
	}}
	n, err := NewNetwork(g, []uint32{1, 4}, policy, NetworkConfig{Strategy: StrategyExact})
	if err != nil {
		t.Fatal(err)
	}
	return n, NewController(n)
}

func TestOnTopologyChangeRetargetsNearestReplica(t *testing.T) {
	n, c := ringNet(t)
	c.FailoverDelay = 0.05

	// Ingress 2's nearest replica is authority 1 (distance 1 vs 2).
	n.InjectPacket(0, 2, flowKey(1, 80), 100, 0)
	n.Run(0.5)
	if n.Switches[1].Stats.AuthorityHits.Load() != 1 {
		t.Fatalf("authority 1 must serve ingress 2 first: %+v", n.Switches[1].Stats.Snapshot())
	}

	// A shortcut 2-4 makes authority 4 ingress 2's nearest replica.
	n.Topo.AddLink(2, 4, 0.0001)
	at := c.OnTopologyChange()
	n.Run(at + 0.01)

	// A fresh flow from ingress 2 must now go to authority 4.
	n.InjectPacket(at+0.1, 2, flowKey(2, 80), 100, 0)
	n.Run(at + 1)
	if n.Switches[4].Stats.AuthorityHits.Load() != 1 {
		t.Fatalf("authority 4 must serve ingress 2 after the shortcut: %+v",
			n.Switches[4].Stats.Snapshot())
	}
	if n.M.Delivered != 2 {
		t.Fatalf("delivered = %d drops=%+v", n.M.Delivered, n.M.Drops)
	}
}

// flowModCounter counts the FlowMods a controller sends through it.
type flowModCounter struct {
	Southbound
	mods int
}

func (f *flowModCounter) FlowMod(sw uint32, mod proto.FlowMod) error {
	f.mods++
	return f.Southbound.FlowMod(sw, mod)
}

// TestOnTopologyChangeNoChangeIsStable: a refresh with nothing to change
// sends no FlowMod, and the partition rules keep their counters.
func TestOnTopologyChangeNoChangeIsStable(t *testing.T) {
	n, c := ringNet(t)
	for i := uint32(0); i < 3; i++ {
		n.InjectPacket(0, 2, flowKey(i+1, 80), 100, 0)
	}
	n.Run(0.5)
	before := partitionEntries(n)
	if !counted(before) {
		t.Fatal("no partition rule counted a redirected packet")
	}
	sb := &flowModCounter{Southbound: c.sb}
	c.sb = sb
	at := c.OnTopologyChange()
	n.Run(at + 0.01)
	if sb.mods != 0 {
		t.Fatalf("a refresh with no topology change sent %d FlowMods", sb.mods)
	}
	if after := partitionEntries(n); !reflect.DeepEqual(after, before) {
		t.Fatalf("partition rules or their counters changed without topology change:\n%v\n%v", before, after)
	}
}

func TestPlaceAuthoritiesSpreads(t *testing.T) {
	g := topo.Linear(10, 1)
	got := PlaceAuthorities(g, 2)
	if len(got) != 2 {
		t.Fatalf("placed %v", got)
	}
	// Farthest-point from node 0 is node 9.
	if got[0] != 0 || got[1] != 9 {
		t.Fatalf("placement = %v, want [0 9]", got)
	}
	if len(PlaceAuthorities(g, 99)) != 10 {
		t.Fatal("k beyond node count must clamp")
	}
	if PlaceAuthorities(topo.NewGraph(), 3) != nil {
		t.Fatal("empty graph must place nothing")
	}
	if PlaceAuthorities(g, 0) != nil {
		t.Fatal("k=0 must place nothing")
	}
}

func TestControllerFailoverConvergenceTime(t *testing.T) {
	n, c := ringNet(t)
	c.FailoverDelay = 0.3
	n.Eng.At(1, func() {
		n.FailAuthority(1)
		at := c.OnTopologyChange()
		if at < 1.29 || at > 1.31 {
			t.Errorf("convergence at %v, want 1.3", at)
		}
	})
	n.Run(2)
}

// TestNoLiveSwitchRedirectsToAFailedAuthority: once authority 1 has
// failed and the controller has failed over, neither a later topology
// refresh nor a controller restarted from the journal sealed before the
// failure puts a redirect to it back on any live switch.
func TestNoLiveSwitchRedirectsToAFailedAuthority(t *testing.T) {
	for _, then := range []string{"refresh", "restart"} {
		t.Run(then, func(t *testing.T) {
			n, c := ringNet(t)
			dir := t.TempDir()
			if err := c.AttachJournal(dir); err != nil {
				t.Fatal(err)
			}
			n.FailAuthority(1)
			n.Run(c.OnTopologyChange() + 0.01)
			if then == "refresh" {
				n.Run(c.OnTopologyChange() + 0.01)
			} else {
				c.Journal().Close()
				c2, _, err := NewControllerFromJournal(n, dir)
				if err != nil {
					t.Fatal(err)
				}
				defer c2.Journal().Close()
			}
			stale := 0
			for id, sw := range n.Switches {
				if !n.Topo.NodeUp(topo.NodeID(id)) {
					continue
				}
				for _, r := range sw.Table(proto.TablePartition).Rules() {
					if r.Action.Kind == flowspace.ActRedirect && r.Action.Arg == 1 {
						stale++
					}
				}
			}
			if stale != 0 {
				t.Fatalf("%d partition rules on live switches redirect to failed authority 1", stale)
			}
		})
	}
}

func TestUpdatePolicyRespectsReplication(t *testing.T) {
	g := topo.NewGraph()
	for i := 0; i < 6; i++ {
		g.AddLink(topo.NodeID(i), topo.NodeID((i+1)%6), 0.001)
	}
	policy := []flowspace.Rule{{
		ID: 1, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 0},
	}}
	n, err := NewNetwork(g, []uint32{1, 3, 5}, policy, NetworkConfig{Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(n)
	if _, err := c.UpdatePolicy(policy); err != nil {
		t.Fatal(err)
	}
	n.Run(1)
	if got := len(n.Assignment().ReplicasFor(0)); got != 3 {
		t.Fatalf("replicas after update = %d, want 3", got)
	}
}
