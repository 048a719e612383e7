package wire

import (
	"fmt"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/tcam"
)

// southbound is wire mode's side of the controller's seam (core.Southbound).
// Once the cluster runs, a FlowMod is a proto frame over the switch's
// control connection, stamped with the controller's fencing epoch, and a
// phase of a control operation starts when every switch has answered a
// barrier; while the cluster boots, before any goroutine runs, FlowMods
// apply in place, so a boot pays no frame codec. The controller reads the
// tables in process: proto has per-rule stats (Cluster.Stats), no dump.
type southbound struct {
	c *Cluster
	// live is set once the cluster's goroutines run.
	live bool
	// hold, when set (tests), runs before each phase of a control operation.
	hold func()
}

func (s *southbound) Now() float64       { return nowSec() }
func (s *southbound) Switches() []uint32 { return s.c.SwitchIDs() }

func (s *southbound) At(_ float64, fn func()) {
	if s.hold != nil {
		s.hold()
	}
	fn()
}

func (s *southbound) FlowMod(sw uint32, mod proto.FlowMod) error {
	if !s.live {
		return s.c.switches[sw].apply(&mod)
	}
	return s.c.InstallRule(sw, mod)
}

func (s *southbound) Barrier(sw uint32) error {
	n := s.c.switches[sw]
	if !s.live || n.killed.Load() {
		return nil
	}
	err := s.c.Barrier(sw, s.c.xids.Add(1)|1<<31) // clear of the XIDs callers pick
	s.c.awaitDrain(n)
	return err
}

func (s *southbound) Stats(sw uint32, t proto.Table) []tcam.Entry {
	return s.c.switches[sw].sw.Table(t).Entries()
}

// Commit publishes the generation r describes with one store, and returns
// once every data plane has moved onto it between two bursts (dataLoop):
// what the controller sends after the commit meets no switch still
// answering from the generation before.
func (s *southbound) Commit(r core.Running, flush bool) {
	c := s.c
	g := &generation{Running: r, flush: flush,
		auths: core.Handlers(r.Assignment, c.cfg.Strategy, c.cache, c.cfg.CacheIdle, c.cfg.CacheHard)}
	if prev := c.run.Load(); prev != nil {
		p := *prev
		p.prev = nil
		g.seq, g.prev = prev.seq+1, &p
	}
	c.cache.SetAssignment(r.Assignment)
	c.run.Store(g)
	for _, n := range c.nodes {
		if !s.live { // the boot's: in place, its partition rules to follow
			n.sw.SetAuthorityBand(core.GenerationMask, g.Generation)
			n.cur.Store(g)
		}
		n.wake()
	}
	for _, n := range c.nodes {
		for n.cur.Load() != g && !n.killed.Load() && c.ctx.Err() == nil {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func (s *southbound) Note(generation uint64, withdraw bool, n uint64) {
	c := s.c
	if withdraw {
		c.cold.policyRuleDeletes.Add(n)
	} else {
		c.cold.policyRuleInstalls.Add(n)
	}
	if generation != 0 { // a boot's, before the probe exists, is not an update's
		c.Convergence().NoteMods(generation, withdraw, n, nowNS(), c.counterTotals())
	}
}

// apply writes one FlowMod into the switch's tables: the only write to its
// authority and partition tables, whether the controller's (in place at
// boot, from a control frame after) or the ingress-local failover's.
func (n *node) apply(mod *proto.FlowMod) error { return n.sw.ApplyFlowMod(nowSec(), mod) }

// generation is what the data plane answers from between two commits,
// published whole by each (Cluster.run) and read by a switch's data
// goroutine once per burst: the assignment (and so each partition's
// failover order), the band of the authority tables, and the miss handlers.
type generation struct {
	core.Running
	// seq counts commits; a redirect carries its parity (via).
	seq   uint64
	flush bool
	auths map[core.HandlerKey]*core.Authority
	// prev is the generation before, for the redirects sent under it and
	// answered after the commit (its own prev is nil).
	prev *generation
}

// via is what a redirect sent under g carries in dataFrame.via.
func (g *generation) via() uint8 { return 1 + uint8(g.seq&1) }

// answering returns the generation a redirect carrying via is answered
// from: the one its ingress classified it under, so that a packet follows
// the policy its ingress was in, whatever the authority switch has moved
// on to since.
func (g *generation) answering(via uint8) *generation {
	if g.prev == nil || via == g.via() {
		return g
	}
	return g.prev
}

// adopt moves n's data plane onto g between two bursts: from here on its
// own authority lookups read g's band, its redirects carry g's via and
// follow g's partition rules, and, if g flushes, its cache holds no rule
// from before (applyInstalls drops one answered under another generation).
// The partition rules are those the controller sends after the commit
// (wire has no topology: primary, then backup), taken here so that no
// redirect reaches a switch that hosts its region in the other generation
// alone.
func (c *Cluster) adopt(n *node, g *generation) {
	if g.flush {
		n.sw.ClearCache()
	}
	n.sw.SetAuthorityBand(core.GenerationMask, g.Generation)
	rules := g.Assignment.PartitionRules(core.PartitionIDBase)
	n.sw.Table(proto.TablePartition).DeleteWhere(func(e tcam.Entry) bool {
		return e.Rule.ID >= core.PartitionIDBase+uint64(2*len(g.Assignment.Partitions))
	})
	for _, r := range rules {
		_ = n.apply(&proto.FlowMod{Table: proto.TablePartition, Op: proto.OpAdd, Rule: r})
	}
	n.cur.Store(g)
}

// awaitDrain returns once n has released every frame its rings held when
// called (or n is killed, or the cluster stops): a barrier's data-plane
// half, after which no redirect sent before it waits to be answered.
func (c *Cluster) awaitDrain(n *node) {
	marks := make([]uint64, len(n.in))
	for i := range n.in {
		if r := n.in[i].Load(); r != nil {
			marks[i] = r.tail.Load()
		}
	}
	for !n.killed.Load() && c.ctx.Err() == nil {
		done := true
		for i := range n.in {
			if r := n.in[i].Load(); done && r != nil && r.head.Load() < marks[i] {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// control runs op on the controller, one operation at a time, and returns
// once every switch has applied what it sent.
func (c *Cluster) control(op func(*core.Controller)) {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	op(c.ctl)
	for _, id := range c.SwitchIDs() {
		_ = c.sb.Barrier(id) // an unreachable switch is the failure detector's to handle
	}
}

// UpdatePolicyConsistent moves the running cluster onto policy,
// make-before-break, under traffic (core.Controller.UpdatePolicyConsistent),
// each phase starting once every switch has answered a barrier, every
// FlowMod fenced by the controller epoch. A redirect is answered by the
// generation its ingress classified it under, so each ingress moves from
// the old policy to the new at one point, its commit. Where the two
// generations place a region on different authority switches, a redirect
// an ingress sends between its commit and the arrival of its new partition
// rules reaches a switch that does not serve it: a hole, as is a redirect
// in flight across the simulator's commit. Returns once the old generation
// is gone.
func (c *Cluster) UpdatePolicyConsistent(policy []flowspace.Rule) error {
	if c.ctrlDown.Load() {
		return fmt.Errorf("wire: policy update with the controller down")
	}
	var err error
	c.control(func(ctl *core.Controller) { _, _, err = ctl.UpdatePolicyConsistent(policy) })
	return err
}
