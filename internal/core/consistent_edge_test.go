package core

import (
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/topo"
)

// TestNoOpConsistentUpdateNoChurn: re-applying the running policy (even
// reordered) must bump the version — callers see their update commit — but
// must not reinstall rules or invalidate ingress caches.
func TestNoOpConsistentUpdateNoChurn(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	c := NewController(n)
	c.PolicyPushDelay = 0.05
	// Populate an ingress cache first.
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.Run(0.1)
	if n.CacheEntries() == 0 {
		t.Fatal("expected a cache entry before the no-op update")
	}
	caches := n.CacheEntries()
	installs, deletes := n.M.PolicyRuleInstalls, n.M.PolicyRuleDeletes
	authLen := n.Switches[2].Table(proto.TableAuthority).Len()

	same := []flowspace.Rule{ // the running policy, reordered
		{ID: 2, Priority: 0, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActDrop}},
		{ID: 1, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}},
	}
	_, cleanupAt, err := c.UpdatePolicyConsistent(same)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(cleanupAt + 0.1)
	if c.PolicyVersion != 1 {
		t.Fatalf("no-op update must still commit a version: %d", c.PolicyVersion)
	}
	if n.M.PolicyRuleInstalls != installs || n.M.PolicyRuleDeletes != deletes {
		t.Fatalf("no-op update churned rules: %d/%d then %d/%d",
			installs, deletes, n.M.PolicyRuleInstalls, n.M.PolicyRuleDeletes)
	}
	if n.CacheEntries() != caches {
		t.Fatalf("no-op update touched caches: %d then %d", caches, n.CacheEntries())
	}
	if got := n.Switches[2].Table(proto.TableAuthority).Len(); got != authLen {
		t.Fatalf("no-op update touched authority table: %d then %d", authLen, got)
	}
}

// TestOverlappingConsistentUpdatesStageDisjointGenerations: two consistent
// updates scheduled before either commits must stage disjoint generation
// bands (the second wins), not collide on the same band and half-delete
// each other in their cleanup phases.
func TestOverlappingConsistentUpdatesStageDisjointGenerations(t *testing.T) {
	n, c := consistentNet(t)
	first := denyPolicy()
	second := []flowspace.Rule{{
		ID: 3, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 2},
	}}
	if _, _, err := c.UpdatePolicyConsistent(first); err != nil {
		t.Fatal(err)
	}
	_, cleanup2, err := c.UpdatePolicyConsistent(second)
	if err != nil {
		t.Fatal(err)
	}
	if c.gen != 2 {
		t.Fatalf("gen = %d, want 2 (bumped at schedule time)", c.gen)
	}
	n.Run(cleanup2 + 0.5)
	if c.PolicyVersion != 2 {
		t.Fatalf("version = %d, want 2", c.PolicyVersion)
	}
	// Only the second update's generation band survives the cleanups.
	rules := n.Switches[1].Table(proto.TableAuthority).Rules()
	if len(rules) == 0 {
		t.Fatal("authority table empty after overlapping updates")
	}
	for _, r := range rules {
		if AuthorityEntryRuleID(r.ID)>>32 != 2 {
			t.Fatalf("stale generation survived: rule ID %#x", r.ID)
		}
	}
	// And traffic follows the second policy with no holes.
	n.InjectPacket(n.Eng.Now()+0.01, 0, flowKey(5, 80), 100, 0)
	n.Run(n.Eng.Now() + 1)
	if n.M.Drops.Hole != 0 || n.M.Drops.Unreachable != 0 {
		t.Fatalf("overlapping updates lost packets: %+v", n.M.Drops)
	}
	if n.M.Delivered == 0 {
		t.Fatal("second policy forwards; nothing was delivered")
	}
}

// TestConsistentUpdateRacingRebalance: a load rebalance firing between a
// consistent update's install and switch phases must not lose packets, and
// must leave the authority TCAMs holding the assignment that commits.
func TestConsistentUpdateRacingRebalance(t *testing.T) {
	g := topo.Linear(5, 0.001)
	policy := testNetPolicy()
	n, err := NewNetwork(g, []uint32{1, 3}, policy, NetworkConfig{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(n)
	c.PolicyPushDelay = 0.1
	deny := []flowspace.Rule{{ID: 9, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActDrop}}}
	installAt, cleanupAt, err := func() (float64, float64, error) {
		switchAt, cleanupAt, err := c.UpdatePolicyConsistent(deny)
		return switchAt - c.PolicyPushDelay, cleanupAt, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	// The rebalance lands mid-update, after the new generation is staged
	// but before the commit point.
	n.Eng.At(installAt+c.PolicyPushDelay/2, func() { c.RebalanceByLoad() })
	// Continuous traffic across all phases.
	flows := uint64(0)
	for at := 0.0; at < cleanupAt+0.3; at += 0.004 {
		n.InjectPacket(at, 0, flowKey(uint32(2000+flows), 80), 100, 0)
		flows++
	}
	n.Run(cleanupAt + 1)
	handled := n.M.Delivered + n.M.Drops.Policy
	if handled != flows {
		t.Fatalf("handled %d of %d flows (drops %+v)", handled, flows, n.M.Drops)
	}
	if n.M.Drops.Hole != 0 || n.M.Drops.Unreachable != 0 {
		t.Fatalf("update racing rebalance lost packets: %+v", n.M.Drops)
	}
	if c.PolicyVersion != 1 {
		t.Fatalf("version = %d, want 1", c.PolicyVersion)
	}
	// The rebalance rewrote the running generation's authority rules and
	// left the staged one alone, so the TCAMs hold exactly the committed
	// assignment (they are what answered the misses above) and Reconcile
	// finds nothing to repair. A rebalance that wiped the staged generation
	// with the rest would show above as holes, and here as installs.
	if installed, deleted := c.Reconcile(); installed != 0 || deleted != 0 {
		t.Fatalf("authority TCAMs diverged from the committed assignment: Reconcile installed %d, deleted %d", installed, deleted)
	}
}
