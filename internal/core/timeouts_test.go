package core

import (
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/switchsim"
)

// Regression tests for the timeout-propagation bug: cfg.CacheIdle used to
// be copied into each Authority once at build time, so changing it later
// silently kept issuing the old timeout. The miss memo holds IDs, not
// FlowMods, so a changed timeout reaches the next miss under the cover's
// old ID.

func missIdle(t *testing.T, a *Authority, k flowspace.Key) float64 {
	t.Helper()
	return missMod(t, a, k).Idle
}

func missMod(t *testing.T, a *Authority, k flowspace.Key) proto.FlowMod {
	t.Helper()
	res := a.HandleMiss(k)
	if !res.OK || len(res.CacheMods) == 0 {
		t.Fatalf("HandleMiss(%v) = %+v, want cache mods", k, res)
	}
	return res.CacheMods[0]
}

// A timeout adapted for one region reaches every handler serving it, and
// the next miss of a key already memoized, under the ID it was minted.
func TestSetCacheTimeoutsPropagatesToAuthorities(t *testing.T) {
	n := testNet(t, NetworkConfig{CacheIdle: 5})
	auths := n.AllAuthorities()
	if len(auths) == 0 {
		t.Fatal("no authorities")
	}
	k := flowKey(1, 80)
	before := missMod(t, auths[0], k)
	if before.Idle != 5 {
		t.Fatalf("initial miss Idle = %g, want 5", before.Idle)
	}

	region := auths[0].RegionIndex
	n.SetRegionIdleTimeout(region, 1.5)
	for _, a := range auths {
		if want := map[bool]float64{true: 1.5, false: 5}[a.RegionIndex == region]; a.CacheIdleTimeout != want {
			t.Fatalf("authority %d (region %d) idle timeout = %g, want %g", a.SwitchID, a.RegionIndex, a.CacheIdleTimeout, want)
		}
	}
	after := missMod(t, auths[0], k)
	if after.Idle != 1.5 || after.Rule.ID != before.Rule.ID {
		t.Fatalf("post-update miss: Idle %g ID %#x, want 1.5 under the memoized ID %#x", after.Idle, after.Rule.ID, before.Rule.ID)
	}
}

// The timeout a network is configured with outlives the handlers the
// controller builds afterwards: a policy update rebuilds them through
// NextGeneration, which stamps the timeout it is given on each.
func TestControllerSetCacheTimeouts(t *testing.T) {
	n := testNet(t, NetworkConfig{CacheIdle: 2})
	c := NewController(n)
	if _, err := c.UpdatePolicy(n.Policy()); err != nil {
		t.Fatal(err)
	}
	n.Run(1)
	if got := missIdle(t, n.AllAuthorities()[0], flowKey(1, 80)); got != 2 {
		t.Fatalf("miss Idle after UpdatePolicy = %g, want 2", got)
	}
	g := NextGeneration(n.gen, n.gen.Running, false, StrategyCover, nil, 3)
	if len(g.Handlers) == 0 {
		t.Fatal("the generation has no handlers")
	}
	k := flowKey(1, 80)
	for key, a := range g.Handlers {
		if a.CacheIdleTimeout != 3 || a.Partition.Region.Holds(&k) && missIdle(t, a, k) != 3 {
			t.Fatalf("handler %v: idle timeout %g, want 3 on it and its misses", key, a.CacheIdleTimeout)
		}
	}
}

// A timeout change flushes nothing: the memo holds the cover's ID, so the
// next miss carries the new timeout under the old ID, and the ingress
// replaces its entry rather than keep a duplicate. (The memo once held
// whole FlowMods, and a change had to flush it and mint afresh.)
func TestAuthoritySetCacheTimeoutsFlushesMemo(t *testing.T) {
	n := testNet(t, NetworkConfig{CacheIdle: 5})
	a := n.AllAuthorities()[0]
	k := flowKey(9, 80)
	before := missMod(t, a, k)

	a.CacheIdleTimeout = 1
	after := missMod(t, a, k)
	if after.Idle != 1 {
		t.Fatalf("miss Idle after change = %g, want 1", after.Idle)
	}
	if after.Rule.ID != before.Rule.ID {
		t.Fatalf("a timeout change re-minted the cover (rule ID %#x → %#x)", before.Rule.ID, after.Rule.ID)
	}
	sw := switchsim.New(0, switchsim.Config{DisjointCache: true})
	_ = sw.ApplyCacheBatch(0, []proto.FlowMod{before, after})
	if es := sw.Table(proto.TableCache).Entries(); len(es) != 1 || es[0].IdleTimeout != 1 {
		t.Fatalf("ingress cache after both installs: %+v, want one entry timing out after 1 s", es)
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
