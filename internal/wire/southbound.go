package wire

import (
	"context"
	"fmt"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/tcam"
)

// southbound is wire mode's side of the controller's seam (core.Southbound)
// for one controller incarnation, whose context ends when KillController
// deposes it: from then on it sends and publishes nothing, and a request
// fails at once, so its operation lets go of ctlMu without waiting out
// replyTimeout. Once the cluster runs, a FlowMod is a proto frame over the
// switch's control connection, stamped by the controller with its epoch,
// and a phase starts when every switch has answered a barrier; while the
// cluster boots, before any goroutine runs, FlowMods apply in place, so a
// boot pays no frame codec. The controller reads the tables in process
// (Stats); nothing but barrier replies and BFD comes back over the control
// connection.
type southbound struct {
	c   *Cluster
	ctl *core.Controller
	// lead is the replica whose journal is ctl's (-1: single-controller
	// mode).
	lead int
	ctx  context.Context
	// depose ends ctx.
	depose context.CancelFunc
	// live is set once the cluster's goroutines run.
	live bool
	// hold, when set (tests), runs before each phase of a control operation.
	hold func()
	// committed is ctl's PolicyVersion as its successor will find it
	// (replicate).
	committed int
}

// incarnation attaches a controller to a southbound of its own, led by
// replica lead.
func (c *Cluster) incarnation(live bool, lead int) *southbound {
	s := &southbound{c: c, live: live, lead: lead}
	s.ctx, s.depose = context.WithCancel(c.ctx)
	s.ctl = core.Attach(s, nil, c.cfg.Authorities, c.cfg.Partition, core.Assign)
	return s
}

func (s *southbound) Now() float64       { return nowSec() }
func (s *southbound) Switches() []uint32 { return s.c.SwitchIDs() }

func (s *southbound) At(_ float64, fn func()) {
	if !s.replicate() {
		return
	}
	if s.hold != nil {
		s.hold()
	}
	if s.ctx.Err() == nil {
		fn()
	}
}

func (s *southbound) FlowMod(sw uint32, mod proto.FlowMod) error {
	n, _ := s.c.node(sw)
	if !s.live {
		return n.apply(&mod)
	}
	// Nothing goes out under a state, or an epoch, the followers lack.
	if !s.replicate() {
		return s.ctx.Err()
	}
	return s.c.send(s.ctx, n, &mod)
}

func (s *southbound) Barrier(sw uint32) error {
	n, _ := s.c.node(sw)
	if !s.live || n.killed.Load() {
		return nil
	}
	err := s.c.barrier(s.ctx, sw)
	s.c.awaitDrain(s.ctx, n)
	return err
}

// replicate ships the leader journal's sealed state, from memory, to the
// live followers that lack it, before each phase, FlowMod and commit and at
// the end of each operation, and reports whether s is still in office. What
// it ships survives the leader, and is what committed counts; with no
// replicas the deposed controller's memory, which RestoreController resumes
// from, survives whole.
func (s *southbound) replicate() bool {
	c := s.c
	c.haMu.Lock()
	defer c.haMu.Unlock()
	inOffice := s.ctx.Err() == nil
	if inOffice && s.lead >= 0 {
		c.catchUpLocked(s.lead)
	}
	if inOffice || s.lead < 0 {
		s.committed = s.ctl.PolicyVersion
	}
	return inOffice
}

func (s *southbound) Stats(sw uint32, t proto.Table) []tcam.Entry {
	n, _ := s.c.node(sw)
	return n.sw.Table(t).Entries()
}

func (s *southbound) Up(sw uint32) bool { return s.c.nodeUsable(sw) }

// Commit publishes the generation r describes with one store, and returns
// once every data plane has moved onto it between two bursts (dataLoop):
// what the controller sends after the commit meets no switch still
// answering from the generation before.
func (s *southbound) Commit(r core.Running, flush bool) {
	c := s.c
	g := core.NextGeneration(c.run.Load(), r, flush, c.cfg.Strategy, c.cache, c.cfg.CacheIdle, c.cfg.CacheHard)
	// Published only once the followers hold the commit's state, and never
	// by a deposed controller: its successor's Resume commits.
	if !s.replicate() {
		return
	}
	c.cache.SetAssignment(r.Assignment)
	c.run.Store(g)
	for _, n := range c.nodes {
		if !s.live { // the boot's, before any data loop runs: in place
			c.adopt(n, g)
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
// boot, from a control frame after), the commit's (adopt) or the
// ingress-local failover's.
func (n *node) apply(mod *proto.FlowMod) error { return n.sw.ApplyFlowMod(nowSec(), mod) }

// adopt moves n's data plane onto g, the generation published by the last
// commit (Cluster.run), between two bursts: from here on its own authority
// lookups read g's band, its redirects carry g's via and follow g's
// partition rules, and, if g flushes, its cache holds no rule from before
// (applyInstalls drops one answered under another generation). The
// partition rules are g's routes (wire has no topology: primary, then
// backup, none to a switch the detector holds dead), written here through
// the controller's diff (core.SyncTable), so that no redirect reaches a
// switch that hosts its region in the other generation alone and a rule
// the commit keeps keeps its counters.
func (c *Cluster) adopt(n *node, g *core.Generation) {
	if g.Flush {
		n.sw.ClearCache()
	}
	n.sw.SetAuthorityBand(core.GenerationMask, g.Generation)
	core.SyncTable(n.sw.Table(proto.TablePartition).Entries(), g.Routes(n.id, nil, c.nodeUsable),
		func(op proto.FlowModOp, r flowspace.Rule) error {
			return n.apply(&proto.FlowMod{Table: proto.TablePartition, Op: op, Rule: r})
		})
	n.cur.Store(g)
}

// awaitDrain returns once n has released every frame its rings held when
// called (or n is killed, or ctx ends): a barrier's data-plane half, after
// which no redirect sent before it waits to be answered.
func (c *Cluster) awaitDrain(ctx context.Context, n *node) {
	marks := make([]uint64, len(n.in))
	for i, r := range n.in {
		marks[i] = r.published()
	}
	for i := 0; i < len(n.in) && !n.killed.Load() && ctx.Err() == nil; {
		if n.in[i].head.Load() >= marks[i] {
			i++
			continue
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// control runs op on the controller in office, one operation at a time,
// and returns its incarnation (run). With no controller in office it drops
// op and returns nil: the next incarnation's Resume covers what op was for.
func (c *Cluster) control(op func(*core.Controller)) *southbound {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	s := c.sb.Load()
	if s.ctx.Err() != nil {
		return nil
	}
	s.run(op)
	return s
}

// run runs op on s's controller and returns once every switch has applied
// what it sent and its journal's state has reached the followers.
func (s *southbound) run(op func(*core.Controller)) {
	op(s.ctl)
	for _, id := range s.c.SwitchIDs() {
		_ = s.Barrier(id) // an unreachable switch is the failure detector's to handle
	}
	s.replicate()
}

// UpdatePolicyConsistent moves the running cluster onto policy,
// make-before-break, under traffic (core.Controller.UpdatePolicyConsistent),
// each phase starting once every switch has answered a barrier, every
// FlowMod fenced by the controller epoch. A redirect is answered by the
// generation its ingress classified it under (core.Generation.Answering),
// as on the simulator, so each ingress moves from the old policy to the new
// at one point, its commit, and a redirect in flight across a commit is no
// hole. Returns once the old generation
// is gone, nil exactly when the cluster runs policy: a controller deposed
// mid-update returns an error unless its commit reached the journal its
// successor resumes from (whose Reconcile then collects the old generation).
func (c *Cluster) UpdatePolicyConsistent(policy []flowspace.Rule) error {
	var err error
	var before int
	s := c.control(func(ctl *core.Controller) {
		before = ctl.PolicyVersion
		_, _, err = ctl.UpdatePolicyConsistent(policy)
	})
	switch {
	case s == nil:
		return fmt.Errorf("wire: policy update with the controller down")
	case err == nil && s.committed == before:
		return fmt.Errorf("wire: controller deposed before the policy update committed")
	}
	return err
}

// RebalanceByLoad moves partitions between the live authorities by the
// load their authority tables counted (core.Controller.RebalanceByLoad),
// and returns how many primaries moved (0 with the controller down). It is
// not hitless: a redirect in flight across it to a host that lost its
// partition is a hole, as on the simulator. Rebalance between traffic
// windows.
func (c *Cluster) RebalanceByLoad() int {
	moved := 0
	c.control(func(ctl *core.Controller) { moved = ctl.RebalanceByLoad() })
	return moved
}

// InvalidateHost withdraws every cache rule that could match host ip from
// every switch (core.Controller.InvalidateHost), and returns how many (0
// with the controller down).
func (c *Cluster) InvalidateHost(ip uint32) int {
	removed := 0
	c.control(func(ctl *core.Controller) { removed = ctl.InvalidateHost(ip) })
	return removed
}
