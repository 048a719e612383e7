package wire

import (
	"time"

	"difane/internal/core"
	"difane/internal/switchsim"
)

// cacheAdaptLoop runs the cost-aware caching layer's adaptation round
// (core.CacheAdapter.Round, the one the simulator runs) against the live
// switches every CacheAdaptInterval until shutdown. The hot path is
// untouched: the round reads TCAM entry counters and the cluster's merged
// measurements on this cadence, never per packet.
func (c *Cluster) cacheAdaptLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.CacheAdaptInterval)
	defer tick.Stop()
	live := make([]*switchsim.Switch, 0, len(c.nodes))
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
		}
		live = live[:0]
		for _, n := range c.nodes {
			if !n.killed.Load() {
				live = append(live, n.sw)
			}
		}
		c.cache.Round(nowSec(), c.Measurements(), live, c.cfg.CacheIdle, c.setRegionIdle)
	}
}

// setRegionIdle hands a region's adapted idle timeout to every authority
// handler of the running generation serving it, under each node's lock —
// Answer mutates the same state.
func (c *Cluster) setRegionIdle(region int, idle float64) {
	for _, n := range c.nodes {
		n.mu.Lock()
		if a := c.run.Load().Handlers[core.HandlerKey{Host: n.id, Part: region}]; a != nil {
			a.SetCacheTimeouts(idle)
		}
		n.mu.Unlock()
	}
}
