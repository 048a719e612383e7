package wire

import (
	"time"

	"difane/internal/core"
	"difane/internal/telemetry"
)

// This file is the cluster's failure detector and failover machinery.
//
// Liveness has two signals that do not overlap, both judged from bfdLoop's
// tick while a controller is up. BFD (bfd.go) is the liveness signal: a
// controller-side session whose detect timer expires marks its switch
// dead. A session that never leaves Down never expires, so a switch is
// judged by BFD only once the controller has first heard it. The second
// signal is redirect acknowledgement: an authority whose control plane
// still answers BFD but whose data plane has stopped processing redirected
// packets (oldest unanswered redirect older than BFDConfig.redirectTimeout)
// is also marked dead — the failure the paper's ingress switches must
// survive without a controller round trip.
//
// Death triggers two independent recovery paths:
//   - ingress-local: the next redirect toward the dead authority re-points
//     the partition rule at the first live host on the partition's
//     failover list, purely in the data plane (failoverLocal in wire.go);
//   - controller-driven: the controller withdraws the dead switch's
//     partition rules from every other switch (promoteBackups) so backups
//     (pre-installed at lower priority) take over cluster-wide.

// Death causes, carried in an EvDeath event's Value: which detector fired.
const (
	deathBFD         uint64 = iota + 1 // the BFD session's detect timer expired
	deathRedirectAck                   // a redirect went unanswered past the timeout
)

// checkLiveness is the redirect-ack check: it holds an authority with a
// stale unanswered redirect dead. It also revives a dead switch once its
// BFD session is Up, no redirect to it is pending and the holddown has
// passed (so a flapping switch doesn't bounce traffic back and forth).
// bfdLoop calls it for every switch whose session did not just expire.
func (c *Cluster) checkLiveness(n *node, now int64) {
	timeout := int64(c.cfg.BFD.redirectTimeout())
	since := n.redirectSince.Load()
	if n.alive.Load() {
		if since != 0 && now-since > timeout {
			c.markDead(n, deathRedirectAck)
		}
		return
	}
	if since == 0 && now-n.deadAt.Load() > 2*timeout && !n.killed.Load() && n.bfdCtrl.Up() {
		c.markAlive(n)
	}
}

// markDead records a death verdict for cause (a death* constant) and kicks
// off backup promotion. When the death traces back to a stamped fault
// injection, the fault→verdict latency lands in the FailoverDetection
// distribution.
func (c *Cluster) markDead(n *node, cause uint64) {
	if !n.alive.CompareAndSwap(true, false) {
		return
	}
	now := time.Now()
	n.deadAt.Store(nowNS())
	if at := n.faultAt.Swap(0); at != 0 {
		c.cold.recordDetection(now.Sub(time.Unix(0, at)).Seconds())
	}
	n.redirectSince.Store(0)
	c.cold.authorityDeaths.Add(1)
	c.Span(telemetry.Event{Kind: telemetry.EvDeath, Node: n.id, Value: cause})
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
// the oldest unanswered one.
func (c *Cluster) notePending(auth uint32) {
	if n, ok := c.switches[auth]; ok && n.redirectSince.Load() == 0 {
		n.redirectSince.CompareAndSwap(0, nowNS())
	}
}
