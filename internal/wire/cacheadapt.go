package wire

import (
	"time"

	"difane/internal/cachepolicy"
	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/tcam"
)

// This file runs the cost-aware caching policy (internal/cachepolicy)
// against a live wire cluster. The hot path is untouched: region
// statistics are derived from TCAM entry counters and the telemetry
// registry on the adaptation cadence, never per packet, and the victim
// scorer only runs when a full cache must evict.

// aggIDBase offsets aggregation cover-rule IDs above every other band
// (matches the simulator).
const aggIDBase uint64 = 1 << 52

// regionOfMatch maps a cache rule's match to its partition index. Cache
// rules are clipped to one partition's region, so the match's Value
// fields (wildcard bits zero) are a member key identifying it. c.assign
// is immutable after construction, so this is safe from any goroutine —
// including under a TCAM's table lock.
func (c *Cluster) regionOfMatch(m flowspace.Match) int {
	var k flowspace.Key
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		k[f] = m.Fields[f].Value
	}
	for i := range c.assign.Partitions {
		if c.assign.Partitions[i].Region.Matches(k) {
			return i
		}
	}
	return -1
}

// cacheVictimFn builds the custom victim picker for ingress caches, or
// nil when the cluster is not cost-aware.
func (c *Cluster) cacheVictimFn() tcam.VictimFunc {
	if c.cachePol == nil {
		return nil
	}
	// cc is reused from one eviction to the next: the table calls the
	// picker under its write lock, and each table gets a closure of its own.
	var cc []cachepolicy.Candidate
	return func(now float64, cands []tcam.VictimCandidate) int {
		cc = cc[:0]
		for i := range cands {
			cand := &cands[i]
			cc = append(cc, cachepolicy.Candidate{
				ID:        cand.ID,
				Region:    c.regionOfMatch(cand.Rule.Match),
				Packets:   cand.Packets,
				LastHit:   cand.LastHit,
				Installed: cand.Installed,
			})
		}
		return c.cachePol.Victim(now, cc)
	}
}

// cacheAdaptLoop paces adaptCachesWire until shutdown.
func (c *Cluster) cacheAdaptLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.CacheAdaptInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
			c.adaptCachesWire()
		}
	}
}

// adaptCachesWire is one adaptation round: refresh deployment-wide priors
// from the metric registry, derive per-region inter-arrival times from
// live cache entry counters, push materially-changed idle timeouts to the
// authority handlers (under each node's lock — Answer mutates the
// same state), and aggregate near-microflow entries into cover rules.
func (c *Cluster) adaptCachesWire() {
	pol := c.cachePol
	if pol == nil {
		return
	}
	now := nowSec()
	pol.ScrapeRegistry(c.Registry())

	for _, n := range c.nodes {
		if n.killed.Load() {
			continue
		}
		for _, e := range n.sw.Table(proto.TableCache).Entries() {
			if e.Packets < 2 {
				continue
			}
			span := e.LastHit() - e.Installed()
			if span <= 0 {
				continue
			}
			pol.ObserveInterArrival(c.regionOfMatch(e.Rule.Match), span/float64(e.Packets-1))
		}
	}

	for _, region := range pol.Regions() {
		idle, changed := pol.AdaptIdle(region)
		if !changed {
			continue
		}
		for _, n := range c.nodes {
			n.mu.Lock()
			if a := n.auths[region]; a != nil {
				a.SetCacheTimeouts(idle, a.CacheHardTimeout)
			}
			n.mu.Unlock()
		}
	}

	regions := make([]cachepolicy.Region, len(c.assign.Partitions))
	for i, p := range c.assign.Partitions {
		regions[i] = cachepolicy.Region{Index: i, Match: p.Region, Rules: p.Rules}
	}
	allocID := func() uint64 { return aggIDBase + c.aggSeq.Add(1) }
	for _, n := range c.nodes {
		if n.killed.Load() {
			continue
		}
		tb := n.sw.Table(proto.TableCache)
		for _, p := range pol.PlanAggregation(tb.Entries(), regions, allocID) {
			// Delete first so the freed slots guarantee the cover lands
			// without evicting an unrelated entry.
			for _, rid := range p.Replace {
				tb.Delete(rid)
			}
			idle := pol.IdleTimeout(p.Region)
			if idle <= 0 {
				idle = c.cfg.CacheIdle
			}
			mod := proto.FlowMod{
				Table: proto.TableCache, Op: proto.OpAdd, Rule: p.Cover,
				Idle: idle, Hard: c.cfg.CacheHard,
			}
			_ = n.sw.ApplyFlowMod(now, &mod)
		}
	}
}
