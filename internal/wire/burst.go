package wire

// The burst engine: wire mode's transport for the packet decisions core
// makes for every backend (core.IngressStep, core.Generation.Answer,
// core.AnswerStep), one pass of a switch's data plane over a vector of
// frames, VPP-style. The frames are read where they lie, in the slots of
// the switch's input rings, and released only after the pass. A burst is
// split into deliveries (tunnels terminating here), authority work
// (redirects targeting here), and fresh classifications; the
// classification vector runs through one TCAM read-lock acquisition per
// table (switchsim.ClassifyBurst), authority misses are answered under one
// node lock and one view, their cache rules leaving in one core.Install
// per ingress (the burst's one allocation per ingress on the miss path),
// and everything leaving the switch is written straight into a slot
// reserved on its destination's ring, each destination's reservations
// published with one commit at the end of the burst. Measurement shards
// likewise take one update per burst for the deliveries. All scratch state
// lives in a per-goroutine burstScratch, so the steady-state cache-hit
// path allocates nothing. Installs are applied between bursts
// (applyInstalls), each rule written into the cache entry it evicts: no
// rule pointer a burst's lookups returned may outlive the burst.

import (
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/packet"
	"difane/internal/proto"
	"difane/internal/switchsim"
	"difane/internal/telemetry"
)

// burstScratch is one data goroutine's reusable burst state. Every slice is
// allocated once (capacity = the configured burst, or the switch count for
// the per-destination counts) and resliced per burst.
type burstScratch struct {
	// run is the generation the switch answers from (dataLoop's adopt).
	run *core.Generation

	// frames points at the burst's frames in the slots of the input rings,
	// gathered by dataLoop; held lists how many each ring lent, for it to
	// release once the burst is through.
	frames []*dataFrame
	held   []heldRun
	pages  pageStash // the ring pages its releases give and reserves take

	// Classification vectors: cidx holds the frames[] indices being
	// classified, keys/sizes their lookup inputs, results the verdicts.
	cidx    []int
	keys    []flowspace.Key
	sizes   []int
	results []switchsim.Result

	// authIdx holds frames[] indices of redirects targeting this switch;
	// authRes the authority's answers, resolved under one node lock, whose
	// cache rules all go into mods. installs gathers them into one
	// core.Install per ingress and answering generation (a sampled
	// packet's alone), and member names the install each answer joined.
	authIdx  []int
	authRes  []core.MissResult
	mods     []proto.FlowMod
	installs []installTo
	member   []int

	// deliv holds frames[] indices delivered at this switch; first/later
	// collect their latencies (seconds) for one batched shard update.
	deliv []int
	first []float64
	later []float64

	// staged counts, per destination slot, the frames reserved on that
	// destination's ring this burst; touched lists the slots with any.
	// redirTargets is the deduplicated set of authority switches redirected
	// to, for pending-redirect bookkeeping.
	staged       []int
	touched      []int
	redirTargets []uint32
}

// heldRun is k frames one ring lent to the burst in progress.
type heldRun struct {
	ring *frameRing
	k    int
}

func newBurstScratch(c *Cluster) *burstScratch {
	const b = fabricBurst
	return &burstScratch{
		frames:       make([]*dataFrame, b),
		held:         make([]heldRun, 0, c.injSlot+1),
		pages:        pageStash{pool: &c.pool, batch: stashBatch},
		cidx:         make([]int, 0, b),
		keys:         make([]flowspace.Key, 0, b),
		sizes:        make([]int, 0, b),
		results:      make([]switchsim.Result, b),
		authIdx:      make([]int, 0, b),
		authRes:      make([]core.MissResult, b),
		member:       make([]int, b),
		deliv:        make([]int, 0, b),
		first:        make([]float64, 0, b),
		later:        make([]float64, 0, b),
		staged:       make([]int, len(c.nodes)),
		touched:      make([]int, 0, len(c.nodes)),
		redirTargets: make([]uint32, 0, 4),
	}
}

func (s *burstScratch) reset() {
	s.cidx = s.cidx[:0]
	s.keys = s.keys[:0]
	s.sizes = s.sizes[:0]
	s.authIdx = s.authIdx[:0]
	s.deliv = s.deliv[:0]
	s.first = s.first[:0]
	s.later = s.later[:0]
	s.redirTargets = s.redirTargets[:0]
}

// noteRedirect records a redirect target once per burst.
func (s *burstScratch) noteRedirect(t uint32) {
	for _, x := range s.redirTargets {
		if x == t {
			return
		}
	}
	s.redirTargets = append(s.redirTargets, t)
}

// processBurst runs one burst through the switch's pipeline.
func (c *Cluster) processBurst(n *node, s *burstScratch, frames []*dataFrame) {
	s.reset()
	// Split: tunnels terminating here are deliveries, redirects targeting
	// here are authority work, everything else gets classified. Every
	// encapsulated frame targets this switch: none is written into any
	// other ring than its target's.
	for i, f := range frames {
		switch f.reason {
		case packet.EncapTunnel:
			s.deliv = append(s.deliv, i)
			continue
		case packet.EncapRedirect:
			s.authIdx = append(s.authIdx, i)
			continue
		}
		s.cidx = append(s.cidx, i)
		s.keys = append(s.keys, f.hdr.Key())
		s.sizes = append(s.sizes, int(f.size))
	}
	if len(s.cidx) > 0 {
		// One read-lock acquisition per table for the whole vector. The
		// oldest frame's inject stamp stands in for "now" — at most a
		// queueing delay stale, far inside the TCAM's seconds-granularity
		// timeout model — saving a clock read per packet. Timeouts are
		// run on the same clock first, so a rule that idled out while no
		// traffic arrived is gone before its flow's next packet looks it
		// up; Advance costs three atomic loads until something is due.
		now := frameSec(frames[s.cidx[0]])
		n.sw.Advance(now)
		res := s.results[:len(s.cidx)]
		n.sw.ClassifyBurst(now, s.keys, s.sizes, res)
		for j, i := range s.cidx {
			c.ingressStep(n, s, frames[i], i, &res[j])
		}
	}
	if len(s.authIdx) > 0 {
		c.authorityBurst(n, s, frames)
	}
	c.flushDeliveries(n, s, frames)
	c.flushForwards(n, s)
}

// ingressStep takes the step core decides for one classified frame: end
// it, stage a tunnel toward its egress, or stage a redirect toward its
// authority switch.
func (c *Cluster) ingressStep(n *node, s *burstScratch, f *dataFrame, i int, res *switchsim.Result) {
	st := core.IngressStep(res)
	if st.Kind != core.VerdictDelivered {
		var ruleID uint64
		if res.OK {
			ruleID = res.Rule.ID
		}
		c.drop(n.stats, n.id, st.Kind, ruleID, f)
		return
	}
	ev := telemetry.EvForward
	if st.Redirect {
		// Miss-storm protection: an ingress over its redirect budget sheds
		// the packet here, in its own data plane, instead of piling onto
		// the authority switch's queue.
		if !n.redirectTB.Allow() {
			c.shedRedirect(n, f)
			return
		}
		if !c.nodeUsable(st.To) {
			// The failure detector marked the target dead: fail over to
			// the backup locally, in the data plane, without a controller
			// round trip.
			next, ok := c.failoverLocal(n, s.run, *res.Rule, st.To)
			if !ok {
				c.drop(n.stats, n.id, core.VerdictUnreachable, res.Rule.ID, f)
				return
			}
			st.To = next
		}
		ev = telemetry.EvRedirect
	}
	if c.TracePkt(f.trace) {
		c.Span(telemetry.Event{
			Kind: ev, Node: n.id, Peer: st.To,
			Table: uint8(res.Table), RuleID: res.Rule.ID, Flow: flowOf(&f.hdr),
			Trace: f.trace,
		})
	}
	if !st.Redirect {
		c.stageTunnel(n, s, st.To, f, i)
		return
	}
	f.via = s.run.Via()
	f.reason, f.encapBy = packet.EncapRedirect, uint16(n.slot)
	n.stats.redirects.Add(1)
	s.noteRedirect(st.To)
	c.stageForward(n, s, st.To, f)
}

// authorityBurst answers the burst's redirected packets: each from the
// generation its ingress classified it under (core.Generation.Answer), all
// under one view of the authority table and one acquisition of the node
// lock (taken before the table's read lock, never inside it), their cache
// rules appended to s.mods. Installs and steps come after both.
func (c *Cluster) authorityBurst(n *node, s *burstScratch, frames []*dataFrame) {
	// Processing redirected packets is the data-plane liveness signal the
	// redirect-ack detector watches for; once per burst is enough, and
	// only a noted redirect needs the write.
	if n.redirectSince.Load() != 0 {
		n.redirectSince.Store(0)
	}
	// Keys are computed outside the lock; s.keys is free again — the
	// classification phase has fully consumed it by now.
	keys := s.keys[:0]
	for _, i := range s.authIdx {
		keys = append(keys, frames[i].hdr.Key())
	}
	res := s.authRes[:len(s.authIdx)]
	now := frameSec(frames[s.authIdx[0]])
	mods := s.mods[:0]
	n.mu.Lock()
	v := n.sw.Table(proto.TableAuthority).AcquireView()
	for j, i := range s.authIdx {
		lo := len(mods)
		_, res[j] = s.run.Answering(frames[i].via).Answer(n.sw, &v, &keys[j], int(frames[i].size), now, mods)
		mods, res[j].CacheMods = res[j].CacheMods, res[j].CacheMods[lo:]
	}
	v.Release()
	n.mu.Unlock()
	s.mods = mods
	c.queueInstalls(n, s, frames, res) // before stageTunnel re-encapsulates
	for j, i := range s.authIdx {
		f := frames[i]
		f.reason = 0 // decapsulate
		if st := core.AnswerStep(&res[j]); st.Kind == core.VerdictDelivered {
			c.stageTunnel(n, s, st.To, f, i)
		} else {
			c.drop(n.stats, n.id, st.Kind, res[j].Rule.ID, f)
		}
	}
}

// installTo is one core.Install a burst gathers for the ingress in slot.
type installTo struct {
	core.Install
	slot uint16
	mods int // FlowMods gathered
}

// queueInstalls traces the burst's answers and hands their cache rules from
// authority switch n straight to the ingresses' install queues (the paper's
// authority→ingress path, no controller in it): one core.Install, send and
// wake-up per ingress and answering generation, a sampled packet's rules
// alone so that its journey shows them. Each redirect's rules are shed, and
// counted, when n is over its install budget or the ingress is killed or
// its queue full. The packets still forward: shedding costs future
// redirects, not reachability.
func (c *Cluster) queueInstalls(n *node, s *burstScratch, frames []*dataFrame, res []core.MissResult) {
	ins := s.installs[:0]
	for j, i := range s.authIdx {
		f := frames[i]
		s.member[j] = -1
		if res[j].OK && c.TracePkt(f.trace) {
			c.Span(telemetry.Event{
				Kind: telemetry.EvAuthority, Node: n.id, Peer: c.nodes[f.encapBy].id,
				Table: uint8(proto.TableAuthority), RuleID: res[j].Rule.ID,
				Flow: flowOf(&f.hdr), Trace: f.trace,
			})
		}
		if len(res[j].CacheMods) == 0 {
			continue
		}
		if c.nodes[f.encapBy].killed.Load() || !n.installTB.Allow() {
			c.shedInstall(n, f)
			continue
		}
		seq, g := s.run.Answering(f.via).Seq, 0
		for g < len(ins) && (ins[g].slot != f.encapBy || ins[g].Seq != seq || ins[g].Trace != f.trace) {
			g++
		}
		if g == len(ins) {
			ins = append(ins, installTo{Install: core.Install{Seq: seq, Trace: f.trace}, slot: f.encapBy})
		}
		ins[g].mods += len(res[j].CacheMods)
		s.member[j] = g
	}
	for g := range ins {
		in, dst, at := &ins[g], c.nodes[ins[g].slot], 0
		in.Mods = make([]proto.FlowMod, 0, in.mods) // the ingress owns it
		for j, i := range s.authIdx {
			if s.member[j] == g {
				in.Mods, at = append(in.Mods, res[j].CacheMods...), i
			}
		}
		if in.Trace != 0 {
			in.Sent(c.Probe, n.id, dst.id, flowOf(&frames[at].hdr))
		}
		// Counted before the send, so drained() never sees the install in
		// neither place; the ingress's applyInstalls applies it.
		dst.installsPending.Add(1)
		select {
		case dst.installQ <- in.Install:
			dst.wake()
		default:
			dst.installsPending.Add(-1)
			for j, i := range s.authIdx {
				if s.member[j] == g {
					c.shedInstall(n, frames[i])
				}
			}
		}
	}
	clear(ins) // the Mods are the ingresses' now
	s.installs = ins[:0]
}

// shedInstall counts, and traces, the shedding of f's cache install.
func (c *Cluster) shedInstall(n *node, f *dataFrame) {
	n.stats.cacheInstallsShed.Add(1)
	c.traceShed(n.id, telemetry.VShedInstall, &f.hdr, f.trace)
}

// applyInstalls applies every cache install queued for this switch, whose
// data plane answers from run (core.Install.Apply). Its data goroutine
// calls it between bursts, so no tcam.View is held, and an install a
// packet triggered lands before the next burst's lookups.
func (c *Cluster) applyInstalls(n *node, run *core.Generation) {
	for {
		select {
		case m := <-n.installQ:
			m.Apply(c.Probe, n.sw, run, nowSec())
			if n.installsPending.Add(-1) == 0 {
				c.wakeIfQuiet()
			}
		default:
			return
		}
	}
}

// stageTunnel encapsulates the frame toward its egress and stages it, or
// delivers it in place when this switch is the egress. n is the node doing
// the forwarding (its shard takes the accounting).
func (c *Cluster) stageTunnel(n *node, s *burstScratch, egress uint32, f *dataFrame, i int) {
	if egress == n.id {
		s.deliv = append(s.deliv, i)
		return
	}
	f.reason, f.encapBy = packet.EncapTunnel, uint16(n.slot)
	c.stageForward(n, s, egress, f)
}

// stageForward writes the frame into the next slot it reserves on its
// destination's ring, for flushForwards to publish. An unknown destination
// is unreachable and a full ring a queue drop (unless the destination is
// dead: its ring stopped draining), both counted here; a destination killed
// before the commit is handled there.
func (c *Cluster) stageForward(src *node, s *burstScratch, to uint32, f *dataFrame) {
	d := c.index.slot(to)
	if d < 0 {
		c.drop(src.stats, src.id, core.VerdictUnreachable, 0, f)
		return
	}
	dst := c.nodes[d]
	k := s.staged[d]
	slot := dst.in[src.slot].reserve(k, &s.pages)
	if slot == nil {
		kind := core.VerdictQueueDrop
		if dst.killed.Load() {
			kind = core.VerdictUnreachable
		}
		c.drop(src.stats, src.id, kind, 0, f)
		return
	}
	*slot = *f
	if k == 0 {
		s.touched = append(s.touched, int(d))
	}
	s.staged[d] = k + 1
}

// flushDeliveries records the burst's deliveries against the node's
// measurement shard in one update: one clock read, one latency-mutex
// acquisition, one completed bump for the whole batch.
func (c *Cluster) flushDeliveries(n *node, s *burstScratch, frames []*dataFrame) {
	if len(s.deliv) == 0 {
		return
	}
	now := nowNS()
	for _, i := range s.deliv {
		f := frames[i]
		lat := time.Duration(now - f.injected)
		if f.via != 0 {
			s.first = append(s.first, lat.Seconds())
		} else {
			s.later = append(s.later, lat.Seconds())
		}
		c.traceVerdict(n.id, telemetry.VDelivered, 0, &f.hdr, int64(lat), f.trace)
		// The length pre-check keeps egress loops from serializing on the
		// shared channel's lock when nobody is draining notifications; the
		// select still sheds racy fill-ups. Either way the notification is
		// dropped, never the packet.
		if len(c.Deliveries) < cap(c.Deliveries) {
			d := Delivery{
				Egress:  n.id,
				Header:  f.hdr,
				Detour:  f.via != 0,
				Latency: lat,
			}
			select {
			case c.Deliveries <- d:
			default:
			}
		}
	}
	n.stats.recordDeliveryBatch(s.first, s.later)
	// completed last: once Deployment.Run observes completed == injected,
	// both the Measurements counters and the Delivery notifications for
	// these packets are already visible. dataLoop wakes Run, after the
	// release.
	c.completed.Add(uint64(len(s.deliv)))
}

// flushForwards publishes each destination's reserved frames with one
// commit and one wakeup per destination per burst. src's shard records
// drops.
func (c *Cluster) flushForwards(src *node, s *burstScratch) {
	// Pending-redirect markers go down before the frames do, so an
	// authority can never acknowledge a redirect we have not yet noted.
	for _, t := range s.redirTargets {
		c.notePending(t)
	}
	for _, slot := range s.touched {
		k := s.staged[slot]
		s.staged[slot] = 0
		dst := c.nodes[slot]
		ring := dst.in[src.slot]
		if dst.killed.Load() {
			// A killed switch's rings would happily take the frames, but its
			// data goroutine is gone: the packets would sit there forever,
			// uncounted — breaking the accounting identity (injected =
			// delivered + drops) and wedging Deployment.Run's completion
			// wait. Leave them unpublished and account them as unreachable,
			// exactly like the simulator's dead-egress path.
			for i := 0; i < k; i++ {
				c.drop(src.stats, src.id, core.VerdictUnreachable, 0, ring.reserve(i, &s.pages))
			}
			continue
		}
		ring.commit(k)
		dst.noteQueueDepth(int64(ring.len()))
		dst.wake()
	}
	s.touched = s.touched[:0]
}
