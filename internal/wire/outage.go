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
// control connections hold. What comes back is a new controller
// incarnation resumed from the old one's state (seat): its epoch, one
// higher, fences the old incarnation out.

// KillController simulates a controller crash: the controller in office is
// deposed (its in-flight operation fails fast and sends nothing more),
// probing stops, every control connection drops, and reconnection holds
// until a successor is seated — by RestoreController in single-controller
// mode, by an election among the surviving replicas when the killed
// controller led HA replicas. Returns false if no controller holds office.
func (c *Cluster) KillController() bool {
	c.haMu.Lock()
	s := c.sb.Load()
	if s.ctx.Err() != nil {
		c.haMu.Unlock()
		return false
	}
	killedAt := time.Now()
	s.depose()
	c.ctrlDown.Store(true)
	elect := false
	if s.lead >= 0 { // the leader replica crashes with its controller
		r := c.replicas[s.lead]
		r.alive = false
		r.jrnl.Close()
		for _, f := range c.replicas {
			elect = elect || f.alive
		}
	}
	c.haMu.Unlock()
	c.cold.controllerOutages.Add(1)
	c.Span(telemetry.Event{
		Kind: telemetry.EvControllerDown, Node: telemetry.ClusterNode,
		Value: s.ctl.Epoch,
	})
	// The controller's connections are gone: switches reconnect once a
	// successor is seated.
	for _, n := range c.nodes {
		n.closeConns()
	}
	if elect {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if sleepCtx(c.ctx, c.cfg.HA.ElectionDelay) {
				c.elect(killedAt)
			}
		}()
	}
	return true
}

// RestoreController brings the controller back, as a recovered process
// would: a new incarnation resumes from the deposed one's state under the
// next epoch, reconciled against the switches (seat). Returns false if the
// controller was not down. With HA replicas it instead revives dead
// replicas (catching them up from the leader's journal) — elections
// already restored service without it — and seats a leader itself only if
// every replica was killed.
func (c *Cluster) RestoreController() bool {
	if len(c.replicas) > 0 {
		return c.restoreReplicas()
	}
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	if !c.ctrlDown.Load() || c.ctx.Err() != nil {
		return false
	}
	c.sb.Store(c.seat(c.sb.Load().ctl.State(), nil, -1))
	return true
}

// ControllerDown reports whether a simulated controller outage is active.
func (c *Cluster) ControllerDown() bool { return c.ctrlDown.Load() }

// Epoch returns the fencing epoch of the controller in office (of the last
// one deposed, while none is).
func (c *Cluster) Epoch() uint64 { return c.sb.Load().ctl.Epoch }

// PeakQueueDepth returns the deepest any switch's input ring has been —
// the bounded-queue evidence the miss-storm bench reports.
func (c *Cluster) PeakQueueDepth() int {
	max := int64(0)
	for _, n := range c.nodes {
		if d := n.peakQueue.Load(); d > max {
			max = d
		}
	}
	return int(max)
}
