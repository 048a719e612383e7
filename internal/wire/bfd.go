package wire

import (
	"time"

	"difane/internal/bfd"
	"difane/internal/proto"
	"difane/internal/telemetry"
)

// BFD-grade failure detection, the cluster's one liveness detector. Every
// switch carries two async sessions from internal/bfd: bfdCtrl is the
// controller's view of the switch (its detect expiry is the death verdict
// that triggers failover, and its being Up is what lets a dead switch
// revive) and bfdSw is the switch's end of that session — the peer
// bfdCtrl shakes hands with and hears from. Nothing acts on bfdSw's own
// verdict: a switch does the same thing whether or not it can reach the
// controller. One cluster goroutine (bfdLoop) ticks every session at half
// the configured interval, and on the same tick runs the redirect-ack
// check (failover.go); transmissions are queued to a per-node writer
// goroutine so a wedged control connection can only stall its own
// switch's sessions. Packets travel as proto.BFDControl frames over the
// existing control channels.

// bfdSend is one queued BFD transmission; toSwitch selects the direction.
type bfdSend struct {
	msg      *proto.BFDControl
	toSwitch bool
}

// initNodeBFD builds a node's session pair. Discriminators are derived
// from the node's dense slot: controller-side sessions are odd,
// switch-side even.
func (c *Cluster) initNodeBFD(n *node) {
	b := c.cfg.BFD
	cfg := bfd.Config{
		DesiredMinTx: b.Interval,
		DetectMult:   b.DetectMult,
	}
	ctrlCfg := cfg
	ctrlCfg.LocalDiscr = uint32(2*n.slot + 1)
	swCfg := cfg
	swCfg.LocalDiscr = uint32(2*n.slot + 2)
	n.bfdCtrl = bfd.New(ctrlCfg, func(old, st bfd.State) { c.onCtrlSessionState(n, old, st) })
	n.bfdSw = bfd.New(swCfg, nil)
	n.bfdQ = make(chan bfdSend, 16)
}

// onCtrlSessionState traces the controller-side session's transitions.
// The death verdict itself is taken in bfdLoop from Tick's expiry result
// (a detect timeout), not from every Down transition — an administrative
// Reset or a peer restarting must not read as a detected failure.
func (c *Cluster) onCtrlSessionState(n *node, old, st bfd.State) {
	if !c.TracingEnabled() {
		return
	}
	switch {
	case st == bfd.StateUp:
		c.Span(telemetry.Event{Kind: telemetry.EvBFDUp, Node: n.id,
			Peer: n.bfdCtrl.Info().RemoteDiscr})
	case old == bfd.StateUp:
		c.Span(telemetry.Event{Kind: telemetry.EvBFDDown, Node: n.id,
			Peer: n.bfdCtrl.Info().RemoteDiscr})
	}
}

// bfdLoop ticks every session at half the transmit interval (so jittered
// deadlines are met within half an interval of slack), and while the
// controller is up takes both detectors' verdicts.
func (c *Cluster) bfdLoop() {
	defer c.wg.Done()
	tick := c.cfg.BFD.Interval / 2
	if tick < 200*time.Microsecond {
		tick = 200 * time.Microsecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	prev := time.Now()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
		}
		now, mono := time.Now(), nowNS()
		// Stall compensation: all sessions transmit from this goroutine, so
		// any oversleep beyond the tick period is locally-caused silence for
		// every one of them — credit it back to the detection clocks rather
		// than let a scheduler stall read as a correlated cluster-wide
		// failure. A genuinely silent peer still accrues one tick of silence
		// per loop pass, so real detection converges regardless of load.
		if credit := now.Sub(prev) - tick; credit > 0 {
			for _, n := range c.nodes {
				n.bfdSw.Credit(credit, now)
				n.bfdCtrl.Credit(credit, now)
			}
		}
		prev = now
		ctrlUp := !c.ctrlDown.Load()
		for _, n := range c.nodes {
			if !n.killed.Load() {
				// Switch side: keeps ticking through a controller outage, so
				// the handshake restarts as soon as the controller is back.
				if pkt, _ := n.bfdSw.Tick(now); pkt != nil {
					c.queueBFD(n, pkt, false)
				}
			}
			if !ctrlUp {
				// Simulated controller crash: the controller's sessions
				// neither transmit nor judge.
				continue
			}
			pkt, expired := n.bfdCtrl.Tick(now)
			if pkt != nil {
				c.queueBFD(n, pkt, true)
			}
			if expired {
				c.markDead(n, deathBFD)
			} else {
				c.checkLiveness(n, mono)
			}
		}
	}
}

// queueBFD hands a packet to the node's writer, dropping on overflow
// (detection tolerates lost control packets by design).
func (c *Cluster) queueBFD(n *node, p *bfd.Packet, toSwitch bool) {
	select {
	case n.bfdQ <- bfdSend{msg: bfdToProto(n.id, p), toSwitch: toSwitch}:
	default:
	}
}

// bfdWriter serializes one node's BFD transmissions in both directions,
// so injected control delays or a wedged connection stall only this
// switch's sessions.
func (c *Cluster) bfdWriter(n *node) {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-n.done:
			return
		case s := <-n.bfdQ:
			_ = c.writeControl(n, s.msg, !s.toSwitch)
		}
	}
}

// bfdToProto converts a session packet to its wire form.
func bfdToProto(nodeID uint32, p *bfd.Packet) *proto.BFDControl {
	return &proto.BFDControl{
		Node:          nodeID,
		State:         uint8(p.State),
		MyDiscr:       p.MyDiscr,
		YourDiscr:     p.YourDiscr,
		DesiredMinTx:  uint64(p.DesiredMinTx),
		RequiredMinRx: uint64(p.RequiredMinRx),
		DetectMult:    p.DetectMult,
	}
}

// protoToBFD converts a wire frame back to a session packet.
func protoToBFD(m *proto.BFDControl) bfd.Packet {
	return bfd.Packet{
		State:         bfd.State(m.State),
		MyDiscr:       m.MyDiscr,
		YourDiscr:     m.YourDiscr,
		DesiredMinTx:  time.Duration(m.DesiredMinTx),
		RequiredMinRx: time.Duration(m.RequiredMinRx),
		DetectMult:    m.DetectMult,
	}
}

// BFDSessions reports the controller-side BFD session for every switch —
// the ops surface difanectl ha renders.
func (c *Cluster) BFDSessions() map[uint32]bfd.Info {
	out := make(map[uint32]bfd.Info, len(c.nodes))
	for _, n := range c.nodes {
		out[n.id] = n.bfdCtrl.Info()
	}
	return out
}
