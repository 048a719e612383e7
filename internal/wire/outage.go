package wire

import (
	"time"

	"difane/internal/telemetry"
)

// Controller-outage mode: a wire cluster can simulate the central
// controller crashing while every switch keeps running. Nothing on a
// packet's path — not the redirect, not the authority's answer, not the
// cache install it sends back to the ingress — touches the controller, so
// cached flows keep hitting and new flows keep being cached. Only the
// control connections hold. When the controller returns it fences the old
// incarnation out with a higher epoch.

// KillController simulates a controller crash. In single-controller mode
// probing stops, every control connection drops, and reconnection holds
// until RestoreController. With HA replicas (cfg.HA.Replicas ≥ 2) it
// kills the current LEADER replica; the surviving replicas elect a new
// leader automatically and the switches fail their control channels over
// to it — no RestoreController call required. Returns false if the
// controller is already down (or, under HA, no leader holds office).
func (c *Cluster) KillController() bool {
	if len(c.replicas) > 0 {
		return c.killLeader()
	}
	if !c.ctrlDown.CompareAndSwap(false, true) {
		return false
	}
	c.cold.controllerOutages.Add(1)
	c.Span(telemetry.Event{
		Kind: telemetry.EvControllerDown, Node: telemetry.ClusterNode,
		Value: c.epoch.Load(),
	})
	for _, n := range c.switches {
		n.closeConns()
	}
	return true
}

// RestoreController brings the controller back, as a recovered process
// would: its fencing epoch is bumped past the dead incarnation's, every
// switch's liveness clock is reset so the returning probes don't race a
// spurious death verdict, and the connection managers re-establish control
// connections. Returns false if the controller was not down. With HA replicas
// it instead revives dead replicas (catching them up from the leader's
// journal) — elections already restored service without it — and promotes
// a leader itself only if every replica was killed.
func (c *Cluster) RestoreController() bool {
	if len(c.replicas) > 0 {
		return c.restoreReplicas()
	}
	if !c.ctrlDown.CompareAndSwap(true, false) {
		return false
	}
	newEpoch := c.epoch.Add(1)
	c.Span(telemetry.Event{
		Kind: telemetry.EvControllerUp, Node: telemetry.ClusterNode,
		Value: newEpoch,
	})
	c.resetBFD()
	now := time.Now().UnixNano()
	for _, n := range c.switches {
		n.lastBeat.Store(now)
	}
	return true
}

// ControllerDown reports whether a simulated controller outage is active.
func (c *Cluster) ControllerDown() bool { return c.ctrlDown.Load() }

// Epoch returns the controller's current fencing epoch.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// SetEpoch raises the controller's fencing epoch — the integration point
// for an external controller recovering from a journal whose durable epoch
// is ahead of this incarnation's. Lowering is refused.
func (c *Cluster) SetEpoch(e uint64) bool {
	for {
		cur := c.epoch.Load()
		if e < cur {
			return false
		}
		if e == cur || c.epoch.CompareAndSwap(cur, e) {
			return true
		}
	}
}

// PeakQueueDepth returns the highest data-queue occupancy any switch has
// seen — the bounded-queue evidence the miss-storm bench reports.
func (c *Cluster) PeakQueueDepth() int {
	max := int64(0)
	for _, n := range c.switches {
		if d := n.peakQueue.Load(); d > max {
			max = d
		}
	}
	return int(max)
}
