package core

import (
	"testing"

	"difane/internal/flowspace"
)

// Regression tests for the timeout-propagation bug: cfg.CacheIdle used to
// be copied into each Authority once at build time, so changing
// them later silently kept issuing the old timeouts — and even a direct
// Authority field write kept serving stale FlowMods out of the miss memo.

func missIdle(t *testing.T, a *Authority, k flowspace.Key) float64 {
	t.Helper()
	res := a.HandleMiss(k)
	if !res.OK || len(res.CacheMods) == 0 {
		t.Fatalf("HandleMiss(%v) = %+v, want cache mods", k, res)
	}
	return res.CacheMods[0].Idle
}

func TestSetCacheTimeoutsPropagatesToAuthorities(t *testing.T) {
	n := testNet(t, NetworkConfig{CacheIdle: 5})
	auths := n.AllAuthorities()
	if len(auths) == 0 {
		t.Fatal("no authorities")
	}
	k := flowKey(1, 80)
	if got := missIdle(t, auths[0], k); got != 5 {
		t.Fatalf("initial miss Idle = %g, want 5", got)
	}

	n.SetCacheTimeouts(1.5)
	if n.cfg.CacheIdle != 1.5 {
		t.Fatalf("cfg.CacheIdle = %g, want 1.5 (rebuilt authorities would revert)", n.cfg.CacheIdle)
	}
	for _, a := range auths {
		if a.CacheIdleTimeout != 1.5 {
			t.Fatalf("authority %d idle timeout = %g, want 1.5", a.SwitchID, a.CacheIdleTimeout)
		}
	}
	// The same key was already memoized: the new timeout must reach its
	// FlowMods anyway (the setter flushes the memo).
	if got := missIdle(t, auths[0], k); got != 1.5 {
		t.Fatalf("post-update miss Idle = %g, want 1.5 (memo served stale timeouts)", got)
	}
}

// Timeouts set on the network must outlive the authority handlers the
// controller builds afterwards: a policy update rebuilds them from cfg.
func TestControllerSetCacheTimeouts(t *testing.T) {
	n := testNet(t, NetworkConfig{CacheIdle: 5})
	c := NewController(n)
	n.SetCacheTimeouts(2)
	if n.cfg.CacheIdle != 2 {
		t.Fatalf("cfg.CacheIdle = %g, want 2 (rebuilt authorities would revert)", n.cfg.CacheIdle)
	}
	if _, err := c.UpdatePolicy(n.Policy()); err != nil {
		t.Fatal(err)
	}
	n.Run(1)
	if got := missIdle(t, n.AllAuthorities()[0], flowKey(1, 80)); got != 2 {
		t.Fatalf("miss Idle after UpdatePolicy = %g, want 2", got)
	}
}

func TestAuthoritySetCacheTimeoutsFlushesMemo(t *testing.T) {
	n := testNet(t, NetworkConfig{CacheIdle: 5})
	a := n.AllAuthorities()[0]
	k := flowKey(9, 80)
	idBefore := a.HandleMiss(k).CacheMods[0].Rule.ID

	// No-op set: memo intact, the generated rule ID is stable.
	a.SetCacheTimeouts(5)
	if id := a.HandleMiss(k).CacheMods[0].Rule.ID; id != idBefore {
		t.Fatalf("no-op SetCacheTimeouts flushed the memo (rule ID %d → %d)", idBefore, id)
	}

	a.SetCacheTimeouts(1)
	if got := missIdle(t, a, k); got != 1 {
		t.Fatalf("miss Idle after change = %g, want 1", got)
	}
}

func TestRegionIndexSetOnAllConstructionPaths(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	check := func(stage string) {
		t.Helper()
		for _, a := range n.AllAuthorities() {
			if a.RegionIndex < 0 || a.RegionIndex >= len(n.Assignment().Partitions) {
				t.Fatalf("%s: authority on %d has RegionIndex %d", stage, a.SwitchID, a.RegionIndex)
			}
			if n.Assignment().Partitions[a.RegionIndex].Region != a.Partition.Region {
				t.Fatalf("%s: RegionIndex %d does not match the handler's region", stage, a.RegionIndex)
			}
		}
	}
	check("initial install")
	c := NewController(n)
	if _, err := c.UpdatePolicy(n.Policy()); err != nil {
		t.Fatal(err)
	}
	n.Run(1)
	check("after UpdatePolicy")
	c.RebalanceByLoad()
	check("after RebalanceByLoad")
}
