package wire

import (
	"time"

	"difane/internal/core"
	"difane/internal/proto"
	"difane/internal/telemetry"
)

// This file is the cluster's failure detector and failover machinery.
//
// Liveness has two signals. The primary one is the heartbeat: the
// controller probes every switch each Heartbeat.Interval and the switch
// echoes; a switch silent for MissThreshold intervals is marked dead. The
// secondary one is redirect acknowledgement: an authority whose control
// plane still echoes but whose data plane has stopped processing
// redirected packets (oldest unacknowledged redirect older than
// RedirectTimeout) is also marked dead — the failure the paper's ingress
// switches must survive without a controller round trip.
//
// Death triggers two independent recovery paths:
//   - ingress-local: the next redirect toward the dead authority re-points
//     the partition rule at the first live host on the partition's
//     failover list, purely in the data plane (failoverLocal in wire.go);
//   - controller-driven: the controller withdraws the dead switch's
//     partition rules from every other switch (promoteBackups) so backups
//     (pre-installed at lower priority) take over cluster-wide.

// heartbeatLoop is the controller's prober: every interval it sends a
// heartbeat to each switch and re-evaluates each switch's liveness.
func (c *Cluster) heartbeatLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.Heartbeat.Interval)
	defer ticker.Stop()
	var seq uint64
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
		}
		if c.ctrlDown.Load() {
			// Simulated controller crash: no probes, no verdicts. The
			// switches ride the outage out on their own.
			continue
		}
		seq++
		now := time.Now()
		for _, n := range c.switches {
			if !n.killed.Load() {
				hb := &proto.Heartbeat{Node: n.id, Seq: seq}
				target := n
				// Asynchronous: a wedged control connection must not stall
				// probing of the other switches.
				go func() { _ = c.writeToSwitch(target, hb) }()
			}
			c.checkLiveness(n, now)
		}
	}
}

// checkLiveness updates one switch's alive verdict from both signals, and
// revives a switch whose heartbeats returned (after a holddown so a
// flapping switch doesn't bounce traffic back and forth).
func (c *Cluster) checkLiveness(n *node, now time.Time) {
	hb := c.cfg.Heartbeat
	silence := now.Sub(time.Unix(0, n.lastBeat.Load()))
	stale := silence > time.Duration(hb.MissThreshold)*hb.Interval
	suspect := false
	if t, ok := c.oldestPending(n.id); ok && now.Sub(t) > hb.redirectTimeout() {
		suspect = true
	}
	if n.alive.Load() {
		if stale || suspect {
			c.markDead(n)
		}
		return
	}
	holddown := now.Sub(time.Unix(0, n.deadAt.Load())) > 2*hb.redirectTimeout()
	if !n.killed.Load() && !stale && !suspect && holddown {
		c.markAlive(n)
	}
}

// markDead records a death verdict and kicks off backup promotion. When
// the death traces back to a stamped fault injection, the fault→verdict
// latency lands in the FailoverDetection distribution — the number the
// BFD-vs-heartbeat bench guard compares.
func (c *Cluster) markDead(n *node) {
	if !n.alive.CompareAndSwap(true, false) {
		return
	}
	now := time.Now()
	n.deadAt.Store(now.UnixNano())
	if at := n.faultAt.Swap(0); at != 0 {
		c.cold.recordDetection(now.Sub(time.Unix(0, at)).Seconds())
	}
	c.clearPending(n.id)
	c.cold.authorityDeaths.Add(1)
	c.Span(telemetry.Event{Kind: telemetry.EvDeath, Node: n.id})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.promoteBackups(n.id)
	}()
}

// markAlive reinstates a recovered switch: besides flipping the verdict it
// has the controller rewrite every switch's partition rules from the running
// assignment, restoring those promoteBackups withdrew (and, OpAdd replacing
// in place, any that failoverLocal re-pointed), so a flapping authority
// degrades service only while it is actually down. Without the reinstall, a
// switch that was ever suspected — even spuriously — would serve no
// redirects again, and a partition whose replicas were each suspected once
// would black-hole its whole region permanently.
func (c *Cluster) markAlive(n *node) {
	if !n.alive.CompareAndSwap(false, true) {
		return
	}
	n.lastBeat.Store(time.Now().UnixNano())
	c.Span(telemetry.Event{Kind: telemetry.EvRevive, Node: n.id})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.control(func(ctl *core.Controller) { ctl.OnTopologyChange() })
	}()
}

// promoteBackups is the controller-driven half of failover
// (core.Controller.PromoteBackups). A partition with a single authority has
// no backup rule, so none is withdrawn or counted for it.
func (c *Cluster) promoteBackups(dead uint32) {
	var rules int
	c.control(func(ctl *core.Controller) { rules = ctl.PromoteBackups(dead) })
	if rules > 0 {
		c.cold.failoversPromoted.Add(uint64(rules))
		c.Span(telemetry.Event{
			Kind: telemetry.EvPromote, Node: dead, Value: uint64(rules),
		})
	}
}

// notePending records a redirect sent toward an authority, keeping only
// the oldest outstanding one per authority.
func (c *Cluster) notePending(auth uint32) {
	c.pendMu.Lock()
	if _, ok := c.pending[auth]; !ok {
		c.pending[auth] = time.Now()
	}
	c.pendMu.Unlock()
}

// clearPending acknowledges an authority's data-plane liveness.
func (c *Cluster) clearPending(auth uint32) {
	c.pendMu.Lock()
	delete(c.pending, auth)
	c.pendMu.Unlock()
}

// oldestPending returns the send time of the authority's oldest
// unacknowledged redirect.
func (c *Cluster) oldestPending(auth uint32) (time.Time, bool) {
	c.pendMu.Lock()
	t, ok := c.pending[auth]
	c.pendMu.Unlock()
	return t, ok
}
