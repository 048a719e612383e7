package core

import (
	"difane/internal/cachepolicy"
	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/tcam"
)

// This file wires internal/cachepolicy into the simulated deployment:
// the cost-aware victim picker behind every ingress cache, the periodic
// adaptation tick that retunes per-region idle timeouts and aggregates
// near-microflow entries, and the timeout-propagation plumbing shared with
// the controller.

// CachePolicy returns the cost-aware caching policy, or nil when the
// deployment runs a fixed eviction policy.
func (n *Network) CachePolicy() *cachepolicy.Policy { return n.cachePol }

// regionOfKey maps a key to its flow-space partition index (−1 when no
// partition covers it — only possible mid-reassignment).
func (n *Network) regionOfKey(k flowspace.Key) int {
	for i := range n.Assignment.Partitions {
		if n.Assignment.Partitions[i].Region.Matches(k) {
			return i
		}
	}
	return -1
}

// regionOfMatch maps a cache rule's match to its partition index. Cache
// rules are clipped to one partition's region, so any member key of the
// match identifies it; the match's Value fields (wildcard bits zero) are
// such a key.
func (n *Network) regionOfMatch(m flowspace.Match) int {
	var k flowspace.Key
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		k[f] = m.Fields[f].Value
	}
	return n.regionOfKey(k)
}

// cacheVictimFn builds the custom victim picker installed on every
// ingress cache, or nil when the deployment is not cost-aware. The TCAM
// calls it with its table lock held; the closure only reads the
// single-threaded simulator's assignment, so that is safe here (wire mode
// builds its own closure over immutable state).
func (n *Network) cacheVictimFn() tcam.VictimFunc {
	if n.cachePol == nil {
		return nil
	}
	// cc is reused from one eviction to the next: the table calls the
	// picker under its write lock, and each table gets a closure of its own.
	var cc []cachepolicy.Candidate
	return func(now float64, cands []tcam.VictimCandidate) int {
		cc = cc[:0]
		for i := range cands {
			c := &cands[i]
			cc = append(cc, cachepolicy.Candidate{
				ID:        c.ID,
				Region:    n.regionOfMatch(c.Rule.Match),
				Packets:   c.Packets,
				LastHit:   c.LastHit,
				Installed: c.Installed,
			})
		}
		return n.cachePol.Victim(now, cc)
	}
}

// configureAuthority stamps an authority handler with the deployment's
// cache timeouts, preferring the policy's adapted per-region idle timeout
// when one exists — so handlers rebuilt by rebalancing or recovery keep
// the adapted value instead of silently reverting to the static default.
func (n *Network) configureAuthority(a *Authority) {
	idle, hard := n.cfg.CacheIdle, n.cfg.CacheHard
	if n.cachePol != nil {
		if ad := n.cachePol.IdleTimeout(a.RegionIndex); ad > 0 {
			idle = ad
		}
	}
	a.SetCacheTimeouts(idle, hard)
}

// SetCacheTimeouts changes the deployment-wide cache timeouts and
// propagates them to every live authority handler. The handlers keep the
// fully-built FlowMods they minted, so propagation must go through
// Authority.SetCacheTimeouts (which flushes them) — a config write alone
// would not reach rules already being issued.
func (n *Network) SetCacheTimeouts(idle, hard float64) {
	n.cfg.CacheIdle = idle
	n.cfg.CacheHard = hard
	for _, a := range n.authorityAt {
		n.configureAuthority(a)
	}
}

// SetCacheTimeouts is the controller-facing form of
// Network.SetCacheTimeouts.
func (c *Controller) SetCacheTimeouts(idle, hard float64) {
	c.net.SetCacheTimeouts(idle, hard)
}

// SetRegionIdleTimeout overrides the idle timeout of one region's cache
// rules on every authority handler serving it.
func (n *Network) SetRegionIdleTimeout(region int, idle float64) {
	for _, a := range n.authorityAt {
		if a.RegionIndex == region {
			a.SetCacheTimeouts(idle, a.CacheHardTimeout)
		}
	}
}

// effectiveIdle is the idle timeout currently in force for a region.
func (n *Network) effectiveIdle(region int) float64 {
	if n.cachePol != nil {
		if ad := n.cachePol.IdleTimeout(region); ad > 0 {
			return ad
		}
	}
	return n.cfg.CacheIdle
}

// policyRegions projects the current assignment into the aggregation
// planner's region list.
func (n *Network) policyRegions() []cachepolicy.Region {
	regions := make([]cachepolicy.Region, len(n.Assignment.Partitions))
	for i, p := range n.Assignment.Partitions {
		regions[i] = cachepolicy.Region{Index: i, Match: p.Region, Rules: p.Rules}
	}
	return regions
}

// aggIDBase offsets aggregation cover-rule IDs above every other ID band
// (policy < 2^32, authority-generated cache rules at 2^40, partition
// rules at 2^50).
const aggIDBase uint64 = 1 << 52

func (n *Network) allocAggID() uint64 {
	n.aggSeq++
	return aggIDBase + n.aggSeq
}

// startCacheAdaptation schedules the self-rescheduling adaptation tick.
// No-op for fixed-policy deployments; the engine's Run(horizon) bounds
// execution, so the perpetual tick never blocks termination.
func (n *Network) startCacheAdaptation() {
	if n.cachePol == nil {
		return
	}
	interval := n.cfg.CacheAdaptInterval
	if interval <= 0 {
		interval = 0.25
	}
	var tick func()
	tick = func() {
		n.adaptCaches()
		n.Eng.After(interval, tick)
	}
	n.Eng.After(interval, tick)
}

// adaptCaches is one adaptation round: refresh the policy's priors from
// telemetry, feed it per-region inter-arrival times derived from live
// cache entry counters, push materially-changed idle timeouts to the
// authority handlers, and aggregate near-microflow cache entries into
// cover rules. Switches are visited in ID order so runs replay
// identically.
func (n *Network) adaptCaches() {
	pol := n.cachePol
	if pol == nil {
		return
	}
	now := n.Eng.Now()
	pol.ScrapeRegistry(n.Registry())

	ids := make([]uint32, 0, len(n.Switches))
	for id := range n.Switches {
		ids = append(ids, id)
	}
	sortU32(ids)

	for _, id := range ids {
		for _, e := range n.Switches[id].Table(proto.TableCache).Entries() {
			if e.Packets < 2 {
				continue
			}
			span := e.LastHit() - e.Installed()
			if span <= 0 {
				continue
			}
			pol.ObserveInterArrival(n.regionOfMatch(e.Rule.Match), span/float64(e.Packets-1))
		}
	}

	for _, region := range pol.Regions() {
		if idle, changed := pol.AdaptIdle(region); changed {
			n.SetRegionIdleTimeout(region, idle)
		}
	}

	regions := n.policyRegions()
	for _, id := range ids {
		sw := n.Switches[id]
		tb := sw.Table(proto.TableCache)
		plans := pol.PlanAggregation(tb.Entries(), regions, n.allocAggID)
		for _, p := range plans {
			// Delete first: the freed slots guarantee the cover lands
			// without evicting an unrelated entry.
			for _, rid := range p.Replace {
				tb.Delete(rid)
			}
			mod := proto.FlowMod{
				Table: proto.TableCache, Op: proto.OpAdd, Rule: p.Cover,
				Idle: n.effectiveIdle(p.Region), Hard: n.cfg.CacheHard,
			}
			_ = sw.ApplyFlowMod(now, &mod)
		}
	}
}
