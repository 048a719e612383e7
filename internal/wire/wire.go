// Package wire runs a DIFANE deployment as real concurrent components: one
// data goroutine per switch, data-plane frames handed between switches as
// parsed packets over per-producer rings, cache installs handed from the
// authority switch straight to the ingress switch beside them, and
// control-plane messages as framed proto messages over in-process pipes —
// the prototype-style counterpart to the discrete-event simulator in
// internal/core. It validates that the protocol, the pipeline, and the
// cache-install feedback loop work under real concurrency, and adds the
// resilience layer the paper's failover story requires: BFD sessions over
// every control channel, redirect acknowledgement for a stalled data
// plane, pre-installed backup authority rules with ingress-local failover,
// control pipes replaced after a failure, and fault-injection hooks for
// testing all of it. A miss never leaves the data plane: nothing on the
// packet or install path touches a control connection, so traffic and
// caching ride out a dead controller.
package wire

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"difane/internal/bfd"
	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/metrics"
	"difane/internal/packet"
	"difane/internal/proto"
	"difane/internal/switchsim"
	"difane/internal/telemetry"
)

// Delivery reports one packet reaching its egress.
type Delivery struct {
	Egress  uint32
	Header  packet.Header
	Detour  bool // true if the packet travelled via an authority switch
	Latency time.Duration
}

// Cluster is a running wire-mode DIFANE deployment.
type Cluster struct {
	cfg ClusterConfig

	// sb is the controller incarnation in office, or the last one deposed;
	// it drives the switches, and ctlMu runs its operations one at a time
	// (control) and seats its successor (seat). run is the generation its
	// last commit published, which every data plane reads.
	sb    atomic.Pointer[southbound]
	ctlMu sync.Mutex
	run   atomic.Pointer[core.Generation]
	// xids numbers the controller's barriers.
	xids atomic.Uint32

	// nodes lists the switches in cfg.Switches order; node.slot indexes it,
	// and index maps an ID to its slot (c.node). Per-producer data rings
	// are addressed by slot, and injSlot (== the number of switches) is
	// every node's extra injection ring.
	nodes   []*node
	index   slotIndex
	injSlot int
	pool    pagePool // the ring pages no frame occupies
	// Deliveries receives every packet that reaches an egress.
	Deliveries chan Delivery

	completed atomic.Uint64

	// awaited is the lowest completed count a caller blocked in
	// awaitQuiescence needs (noWaiter when there is none), read by the
	// data plane after each write to a term of the quiescence predicate
	// (wakeIfQuiet). waitMu guards woken, which wakeWaiters closes and
	// replaces.
	awaited atomic.Uint64
	waitMu  sync.Mutex
	woken   chan struct{}

	// ext is the measurement shard for accounting that happens outside
	// any node's data goroutine (injection-path drops); every node carries
	// its own shard (node.stats). cold holds the rare control-plane
	// counters. Measurements() merges all of them — the data plane never
	// takes a cluster-wide lock.
	ext  *nodeStats
	cold coldStats

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// replicas holds the controller replica set when cfg.HA.Replicas ≥ 2;
	// empty means single-controller (legacy) mode. haMu serializes
	// replica-set mutations: journal shipping, deposing the controller,
	// revival. haDir roots the replica journals; it is removed on Close
	// when the cluster created it (haDirOwned).
	replicas   []*ctrlReplica
	haMu       sync.Mutex
	haDir      string
	haDirOwned bool
	// ctrlDown simulates a controller crash (KillController): switches
	// keep serving, and keep caching new flows, from their own tables;
	// only the control connections hold until a successor is seated.
	ctrlDown atomic.Bool

	// Probe is the forensics and metrics layer shared with the simulated
	// backends, on the recorder's wall clock; its watchdog is driven by
	// healthLoop unless cfg.Telemetry.DisableHealth. tsrv is the optional
	// HTTP endpoint (cfg.Telemetry.Addr).
	*telemetry.Probe
	tsrv *telemetry.Server

	// cache is the cost-aware caching layer (nil, and every call on it a
	// no-op, unless cfg.CacheEviction == core.EvictCostAware).
	cache *core.CacheAdapter

	closed    atomic.Bool
	closeOnce sync.Once
}

// node is one switch goroutine with its tables, data rings, and control
// connection.
type node struct {
	id uint32
	// slot is this node's dense index in Cluster.nodes (cfg.Switches
	// order); peers address their ring into this node by their own slot.
	slot int
	// mu serializes the node's authority-side miss handling (Answer
	// mutates Authority state). The switch tables themselves are
	// concurrency-safe (internal/tcam locks each table for itself), so
	// classification and FlowMod installs take no node lock at all.
	mu sync.Mutex
	sw *switchsim.Switch

	// cur is the generation the node's data plane answers from (adopt).
	cur atomic.Pointer[core.Generation]

	// stats is this node's measurement shard; the hot path records
	// deliveries and drops here without touching any other node's state.
	stats *nodeStats

	// in holds the node's input rings, one SPSC ring per producer: in[s]
	// is fed only by switch s's data goroutine, and in[injSlot] is the
	// injection ring, serialized across arbitrary callers by injectMu.
	// The node's data goroutine is the sole consumer of all of them.
	// Every ring is built at boot and holds pages only while frames are in
	// it, or until the data goroutine parks on it drained (injPages, under
	// injectMu, gets the injection ring's), so the O(switches²) matrix
	// costs what the traffic holds.
	in       []*frameRing
	injectMu sync.Mutex
	injPages pageStash
	// notify wakes the data goroutine after a push; capacity 1 coalesces
	// bursts of wakeups.
	notify chan struct{}

	// connMu guards the current control-connection pair. ctrl is the
	// switch side and ctrlPeer the controller side; the connection manager
	// replaces both on reconnect. Only controller traffic rides it
	// (FlowMods, barriers, BFD); cache installs never do.
	connMu   sync.Mutex
	ctrl     net.Conn
	ctrlPeer net.Conn

	// replies carries the XIDs of barrier replies back to the
	// controller-side caller (barrier); replyMu lets one wait at a time.
	replies chan uint32
	replyMu sync.Mutex

	// done is closed by KillSwitch: the node's goroutines stop, simulating
	// a crashed switch.
	done     chan struct{}
	killOnce sync.Once

	killed      atomic.Bool
	alive       atomic.Bool  // the failure detector's current verdict
	partitioned atomic.Bool  // control-plane partition fault injected
	ctrlDelay   atomic.Int64 // injected per-control-write delay, ns
	deadAt      atomic.Int64 // nowNS of the last death, for holddown
	// faultAt is stamped when a fault hook (KillSwitch, PartitionControl)
	// makes this switch undetectably dead; markDead swaps it out to
	// measure fault→verdict detection latency.
	faultAt atomic.Int64

	// bfdCtrl is the controller-side BFD session watching this switch;
	// bfdSw is its handshake peer on the switch. bfdQ feeds the node's BFD
	// writer goroutine; full means the packet is dropped (BFD tolerates
	// loss by design).
	bfdCtrl *bfd.Session
	bfdSw   *bfd.Session
	bfdQ    chan bfdSend

	// epoch is the switch's install fence: the highest epoch it has
	// accepted a fenced FlowMod under. Epoch-0 FlowMods (data-plane cache
	// installs) bypass the fence.
	epoch atomic.Uint64
	// peakQueue is the high-water mark of queueLen (see noteQueueDepth).
	peakQueue atomic.Int64
	// redirectSince is the nowNS send time of the oldest redirect toward
	// this switch its data plane has not yet answered (0: none), the
	// redirect-ack detector's input. Ingresses set it as they flush and the
	// switch's own data loop clears it once per burst of redirects it
	// answers; it sits apart from killed and alive, which every redirect
	// reads.
	redirectSince atomic.Int64

	// installQ receives the cache installs authority switches generate for
	// flows that entered here, in process and unencoded like the data
	// rings' frames. This node's data goroutine drains it between bursts;
	// overflow sheds the install (counted at the authority), never the
	// packet. installsPending counts installs queued and not yet applied,
	// so drained() does not call a popped, half-applied install done.
	installQ        chan core.Install
	installsPending atomic.Int64

	// redirectTB / installTB shed miss-storm overload (nil = unlimited).
	redirectTB *metrics.TokenBucket
	installTB  *metrics.TokenBucket
}

// dataFrame is one packet in flight between switches: exactly one 64-byte
// cache line, holding only what the data plane reads. In-process handoff
// carries the parsed header by value — a switch parses a packet once, at
// injection, and forwards the parsed form, the way a software switch
// carries parsed metadata through its pipeline instead of re-serializing
// per hop. A frame is written once per hop, into a slot of the next
// switch's ring, and that switch classifies and rewrites it in place
// there (frameRing.peekBurst), so each hop owns its frame outright with no
// cloning and no pointer shared between hops.
type dataFrame struct {
	hdr packet.Header
	// injected is monotonic nanoseconds since the package time base
	// (start) — cheaper to stamp and to diff than a wall-clock time.Time,
	// and the hot path reads the clock exactly twice per packet: here and
	// at delivery.
	injected int64
	// trace is the packet's sampled trace ID (0 = unsampled): stamped once
	// at injection, carried across every hop, and
	// attached to every span event the packet generates.
	trace uint64
	size  uint32 // total bytes on the wire, for counters and byte rates
	// encapBy and reason are the DIFANE encapsulation header, by value:
	// reason is 0 for a bare frame, and encapBy is the node slot of the
	// switch that encapsulated it (for a redirect, the ingress the
	// authority installs the cache rule at; Validate keeps slots inside 16
	// bits). The tunnel's target needs no field: a frame is only ever
	// written into its target's ring.
	encapBy uint16
	reason  packet.EncapReason
	// via is 0 for a packet that has not travelled via an authority
	// switch; a redirect carries the via of the generation its ingress
	// classified it under (core.Generation.Answering), and keeps it after.
	via uint8
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return NewClusterContext(context.Background(), cfg)
}

// NewClusterContext is NewCluster with a caller-controlled lifetime: when
// ctx is cancelled the cluster shuts down as if Close had been called
// (without the drain grace period).
func NewClusterContext(ctx context.Context, cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cctx, cancel := context.WithCancel(ctx)
	c := &Cluster{
		cfg:        cfg,
		Deliveries: make(chan Delivery, cfg.QueueDepth),
		woken:      make(chan struct{}),
		ext:        &nodeStats{},
		ctx:        cctx,
		cancel:     cancel,
		cache:      core.NewCacheAdapter(cfg.CacheEviction),
	}
	// fail tears down whatever construction has built so far.
	fail := func(err error) (*Cluster, error) {
		cancel()
		for _, n := range c.nodes {
			n.ctrl.Close()
			n.ctrlPeer.Close()
		}
		return nil, err
	}
	c.injSlot = len(cfg.Switches)
	for slot, id := range cfg.Switches {
		swConn, ctrlConn := cfg.newPipe()
		n := &node{
			id:   id,
			slot: slot,
			sw: switchsim.New(id, switchsim.Config{
				CacheCapacity: cfg.CacheCapacity,
				CacheEviction: cfg.CacheEviction.TCAMPolicy(),
				CacheVictim:   c.cache.VictimFn(),
				TCAMBudget:    cfg.TCAMBudget,
				DisjointCache: cfg.Strategy != core.StrategyDependent,
			}),
			stats:      &nodeStats{},
			in:         make([]*frameRing, len(cfg.Switches)+1),
			injPages:   pageStash{pool: &c.pool},
			notify:     make(chan struct{}, 1),
			ctrl:       swConn,
			ctrlPeer:   ctrlConn,
			replies:    make(chan uint32, 16),
			done:       make(chan struct{}),
			installQ:   make(chan core.Install, 256),
			redirectTB: metrics.NewTokenBucket(cfg.Overload.RedirectRate, cfg.Overload.RedirectBurst),
			installTB:  metrics.NewTokenBucket(cfg.Overload.CacheInstallRate, cfg.Overload.CacheInstallBurst),
		}
		for i := range n.in {
			n.in[i] = newFrameRing(cfg.QueueDepth)
		}
		n.alive.Store(true)
		c.initNodeBFD(n)
		c.nodes = append(c.nodes, n)
	}
	c.index = newSlotIndex(cfg.Switches)
	c.awaited.Store(noWaiter)
	// The controller boots the switches in place, before any goroutine
	// runs; from here on it reaches them over their control connections.
	s := c.incarnation(false, -1)
	c.sb.Store(s)
	if err := s.ctl.Boot(cfg.Policy); err != nil {
		return fail(err)
	}
	if err := c.initHA(); err != nil {
		return fail(err)
	}
	s.live = true
	// Telemetry comes up after the boot installs (so boot-time rule pushes
	// don't flood the trace rings) and before any goroutine starts (the
	// TCAM hook-set-before-sharing contract).
	c.initTelemetry()
	if err := c.startTelemetryServer(); err != nil {
		return fail(err)
	}
	for _, n := range c.nodes {
		c.wg.Add(3)
		go c.dataLoop(n)
		go c.ctrlManager(n)
		go c.bfdWriter(n)
	}
	c.wg.Add(1)
	go c.bfdLoop()
	if !cfg.Telemetry.DisableHealth {
		c.wg.Add(1)
		go c.healthLoop()
	}
	if c.cache != nil {
		c.wg.Add(1)
		go c.cacheAdaptLoop()
	}
	return c, nil
}

// Assignment returns the partition→authority assignment the cluster runs.
func (c *Cluster) Assignment() core.Assignment { return c.run.Load().Assignment }

// Inject enqueues a packet at the ingress switch's injection ring. It
// returns false if the ring is full (backpressure), the switch is unknown
// or killed, or the cluster is closing. A refused packet is not counted
// lost: the caller retries it or gives it up.
func (c *Cluster) Inject(ingress uint32, h packet.Header, size int) bool {
	return c.tryInject(ingress, h, size, c.TraceID(h.Key(), 0))
}

// traceIngress publishes the ingress span that opens a sampled packet's
// journey.
func (c *Cluster) traceIngress(ingress uint32, h *packet.Header, trace uint64) {
	if trace == 0 || !c.TracingEnabled() {
		return
	}
	c.Span(telemetry.Event{
		Kind: telemetry.EvIngress, Node: ingress, Trace: trace, Flow: flowOf(h),
	})
}

// tryInject is Inject with the packet's sampled trace ID (0 = unsampled),
// minted by the caller via TraceID.
func (c *Cluster) tryInject(ingress uint32, h packet.Header, size int, trace uint64) bool {
	n, _ := c.node(ingress)
	ring := c.openInjection(n)
	if ring == nil {
		return false
	}
	defer n.injectMu.Unlock()
	f := ring.reserve(0, &n.injPages)
	if f == nil {
		return false
	}
	*f = dataFrame{hdr: h, size: uint32(size), injected: nowNS(), trace: trace}
	c.traceIngress(ingress, &h, trace)
	c.commitInjected(n, ring, 1)
	return true
}

// openInjection returns switch n's injection ring with n's injectMu held,
// for the caller to reserve, write, commitInjected and unlock — or nil,
// with no lock held, when n is nil (an unknown switch) or killed or the
// cluster is closing.
func (c *Cluster) openInjection(n *node) *frameRing {
	if n == nil || n.killed.Load() || c.closed.Load() {
		return nil
	}
	n.injectMu.Lock()
	return n.in[c.injSlot]
}

// commitInjected publishes the k frames written into n's injection ring:
// one tail store and one wakeup.
func (c *Cluster) commitInjected(n *node, ring *frameRing, k int) {
	ring.commit(k)
	n.noteQueueDepth(int64(ring.len()))
	n.wake()
}

// wake nudges the node's data goroutine after a ring push.
func (n *node) wake() {
	select {
	case n.notify <- struct{}{}:
	default:
	}
}

// queueLen is the occupancy of the node's deepest input ring: what
// overflows at QueueDepth, and what peakQueue is the high-water mark of.
func (n *node) queueLen() int {
	deepest := 0
	for _, r := range n.in {
		deepest = max(deepest, r.len())
	}
	return deepest
}

// Measurements returns a snapshot of the cluster's recorded statistics
// (latency distributions, delivery and drop counts, failover counters),
// merged from the per-node measurement shards. Safe to call while the
// cluster runs; it never blocks the data plane.
func (c *Cluster) Measurements() *core.Measurements {
	m := &core.Measurements{}
	c.ext.mergeInto(m)
	for _, n := range c.nodes {
		n.stats.mergeInto(m)
	}
	c.cold.mergeInto(m)
	return m
}

// drop ends frame f at switch node with kind, any verdict but a delivery:
// recorded against measurement shard s (the handling node's, or c.ext on the
// injection path), and spanned when f is sampled. A policy drop of a
// redirected packet, decided at its authority switch, completes a flow
// setup; every other kind is a loss.
//
// All terminal paths record their Measurements counter BEFORE bumping
// completed: Deployment.Run returns the moment completed catches up with
// injected, and a caller reading Measurements right after must see the
// packet's counter — otherwise the accounting identity (injected =
// delivered + drops) transiently under-counts.
//
// None of them wakes Run: inside a burst, whose ring slots are still held,
// the quiescence predicate cannot hold yet, and dataLoop wakes the waiters
// once it has released them. The injection path wakes them itself.
func (c *Cluster) drop(s *nodeStats, node uint32, kind core.VerdictKind, ruleID uint64, f *dataFrame) {
	switch kind {
	case core.VerdictPolicyDrop:
		s.dropPolicy.Add(1)
		if f.via != 0 {
			s.setupsCompleted.Add(1)
		}
	case core.VerdictHole:
		s.dropHole.Add(1)
	case core.VerdictQueueDrop:
		s.dropQueue.Add(1)
	default:
		s.dropUnreachable.Add(1)
	}
	c.completed.Add(1)
	c.traceVerdict(node, core.VerdictCode(kind), ruleID, &f.hdr, 0, f.trace)
}

// shedRedirect records frame f deliberately shed by ingress n's redirect
// token bucket under a miss storm.
func (c *Cluster) shedRedirect(n *node, f *dataFrame) {
	n.stats.dropRedirectShed.Add(1)
	c.completed.Add(1)
	c.traceShed(n.id, telemetry.VShedRedirect, &f.hdr, f.trace)
}

// dataLoop is a switch's data plane: apply the cache installs authority
// switches queued for it, gather a burst of frames across the input rings
// (pointers into their slots, nothing copied), run the whole vector
// through one classification pass, flush the results downstream in
// per-destination bursts (see burst.go), and only then release the slots.
// When a full scan of the rings comes up empty the loop gives the pages
// under their heads and its stash back to the pool and blocks on the
// node's notify channel; producers push first and kick after, so a wakeup
// can never be lost.
func (c *Cluster) dataLoop(n *node) {
	defer c.wg.Done()
	s := newBurstScratch(c)
	defer s.pages.spill(0)
	s.run = n.cur.Load() // the boot's commit
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-n.done:
			return
		default:
		}
		c.applyInstalls(n, s.run)
		total := 0
		for i := range n.in {
			if total == len(s.frames) {
				break
			}
			if k := n.in[i].peekBurst(s.frames[total:]); k > 0 {
				total += k
				s.held = append(s.held, heldRun{n.in[i], k})
			}
		}
		// A commit is picked up here, after the gather: a frame a switch
		// sent after moving on was published before its store, so this
		// load sees that commit too, and answers the frame from it.
		if g := c.run.Load(); g != s.run {
			s.run = g
			c.adopt(n, g)
		}
		if total == 0 {
			for _, r := range n.in {
				r.idle(&s.pages)
			}
			s.pages.spill(0)
			select {
			case <-c.ctx.Done():
				return
			case <-n.done:
				return
			case <-n.notify:
			}
			continue
		}
		c.processBurst(n, s, s.frames[:total])
		for _, h := range s.held {
			h.ring.release(h.k, &s.pages)
		}
		s.held = s.held[:0]
		// The burst's terminal accounting ran while its slots were still
		// held, and drained() counts held slots, so the wake-up for
		// whatever the burst completed comes only now.
		c.wakeIfQuiet()
	}
}

// traceShed publishes the shedding of a packet, or of the cache install it
// triggered, under overload, when tracing is on.
func (c *Cluster) traceShed(node uint32, verdict uint8, h *packet.Header, trace uint64) {
	if c.TracePkt(trace) {
		c.Span(telemetry.Event{Kind: telemetry.EvShed, Node: node, Verdict: verdict, Flow: flowOf(h), Trace: trace})
	}
}

// traceVerdict publishes a terminal packet event when tracing is on. lat
// is the delivery latency in nanoseconds (0 for drops); trace the packet's
// sampled trace ID (0 = unsampled).
func (c *Cluster) traceVerdict(node uint32, verdict uint8, ruleID uint64, h *packet.Header, lat int64, trace uint64) {
	if !c.TracePkt(trace) {
		return
	}
	c.Span(telemetry.Event{
		Kind: telemetry.EvVerdict, Node: node, Verdict: verdict,
		RuleID: ruleID, Value: uint64(lat), Flow: flowOf(h), Trace: trace,
	})
}

// failoverLocal re-points a partition rule at the next live authority in
// the partition's failover list under generation g — the ingress-side half
// of DIFANE's failover, requiring no controller involvement because backup
// authority rules are pre-installed.
func (c *Cluster) failoverLocal(n *node, g *core.Generation, r flowspace.Rule, dead uint32) (uint32, bool) {
	idx, ok := g.Assignment.PartitionOfRuleID(core.PartitionIDBase, r.ID)
	if !ok {
		return 0, false
	}
	next := uint32(0)
	found := false
	for _, h := range g.Assignment.FailoverList(idx) {
		if h != dead && c.nodeUsable(h) {
			next, found = h, true
			break
		}
	}
	if !found {
		return 0, false
	}
	nr := r
	nr.Action = flowspace.Action{Kind: flowspace.ActRedirect, Arg: next}
	_ = n.apply(&proto.FlowMod{Table: proto.TablePartition, Op: proto.OpAdd, Rule: nr})
	n.stats.failoversLocal.Add(1)
	c.Span(telemetry.Event{
		Kind: telemetry.EvFailoverLocal, Node: n.id, Peer: next,
		Table: uint8(proto.TablePartition), RuleID: r.ID, Value: uint64(dead),
	})
	return next, true
}

// nodeUsable reports whether the failure detector currently believes the
// switch can serve traffic.
func (c *Cluster) nodeUsable(id uint32) bool {
	n, ok := c.node(id)
	return ok && !n.killed.Load() && n.alive.Load()
}

// NodeAlive reports the failure detector's verdict for a switch.
func (c *Cluster) NodeAlive(id uint32) bool { return c.nodeUsable(id) }

// noteQueueDepth records the depth d of an input ring just written.
func (n *node) noteQueueDepth(d int64) {
	for {
		cur := n.peakQueue.Load()
		if d <= cur || n.peakQueue.CompareAndSwap(cur, d) {
			return
		}
	}
}

// conns returns the node's current control-connection pair.
func (n *node) conns() (net.Conn, net.Conn) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return n.ctrl, n.ctrlPeer
}

// closeConns closes the node's current control-connection pair, unblocking
// any reader.
func (n *node) closeConns() {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.ctrl != nil {
		n.ctrl.Close()
	}
	if n.ctrlPeer != nil {
		n.ctrlPeer.Close()
	}
}

// ctrlManager owns a node's control-channel lifecycle: it runs one reader
// per side, and when either side fails it tears the session down and has
// reconnect replace the pipe.
func (c *Cluster) ctrlManager(n *node) {
	defer c.wg.Done()
	for {
		sw, peer := n.conns()
		fail := make(chan struct{}, 2)
		var session sync.WaitGroup
		session.Add(2)
		go func() {
			defer session.Done()
			c.switchCtrlRead(n, sw)
			fail <- struct{}{}
		}()
		go func() {
			defer session.Done()
			c.ctrlPeerRead(n, peer)
			fail <- struct{}{}
		}()
		<-fail
		sw.Close()
		peer.Close()
		session.Wait()
		if !c.reconnect(n) {
			return
		}
	}
}

// reconnect gives a node a new control pipe. While a partition fault is
// injected or the controller is down it waits, re-checking every BFD
// interval. It reports false, making none, once the cluster is closing or
// the switch was killed.
func (c *Cluster) reconnect(n *node) bool {
	for {
		if c.ctx.Err() != nil || n.killed.Load() {
			return false
		}
		if !n.partitioned.Load() && !c.ctrlDown.Load() {
			break
		}
		if !sleepCtx(c.ctx, c.cfg.BFD.Interval) {
			return false
		}
	}
	sw, peer := c.cfg.newPipe()
	n.connMu.Lock()
	n.ctrl, n.ctrlPeer = sw, peer
	n.connMu.Unlock()
	if c.ctx.Err() != nil {
		// Close cancelled the context before it closed each node's
		// connections; this pair may have missed that.
		n.closeConns()
		return false
	}
	c.cold.controlReconnects.Add(1)
	c.Span(telemetry.Event{Kind: telemetry.EvReconnect, Node: n.id})
	return true
}

// switchCtrlRead is the switch side of the control connection: it applies
// commands from the controller, feeds BFD packets to the switch's session,
// and answers barriers. Nothing else goes upstream: a switch's tables and
// fence are read in process.
func (c *Cluster) switchCtrlRead(n *node, conn net.Conn) {
	for {
		msg, err := proto.ReadMessage(conn)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *proto.FlowMod:
			// Epoch fencing: a fenced install (Epoch != 0) older than the
			// highest epoch this switch has accepted is a straggler from a
			// dead controller — reject it. Epoch-0 installs (data-plane
			// origin) bypass the fence.
			if m.Epoch != 0 {
				before := n.epoch.Load()
				if !n.raiseEpoch(m.Epoch) {
					c.cold.staleInstallsRejected.Add(1)
					c.Convergence().NoteReject(m.Epoch, nowNS())
					c.Span(telemetry.Event{
						Kind: telemetry.EvEpochReject, Node: n.id, Value: m.Epoch,
					})
					continue
				}
				if m.Epoch > before {
					c.Span(telemetry.Event{
						Kind: telemetry.EvEpochRaise, Node: n.id, Value: m.Epoch,
					})
				}
			}
			// No node lock: each table locks itself, and the data plane
			// holds a table's read lock only for one burst. (The controller
			// counts its FlowMods on the convergence timeline as it sends.)
			_ = n.apply(m)
		case *proto.BarrierReq:
			// Replies are written asynchronously: net.Pipe writes block
			// until read, and a reply written inline from this loop could
			// deadlock against the controller writing toward this switch.
			reply := &proto.BarrierReply{XID: m.XID}
			go func() { _ = c.writeToController(n, reply) }()
		case *proto.BFDControl:
			n.bfdSw.Handle(protoToBFD(m), time.Now())
		}
	}
}

// raiseEpoch accepts epoch e into the switch's fence if it is not stale,
// monotonically raising the fence. Returns false for a stale epoch.
func (n *node) raiseEpoch(e uint64) bool {
	for {
		cur := n.epoch.Load()
		if e < cur {
			return false
		}
		if e == cur || n.epoch.CompareAndSwap(cur, e) {
			return true
		}
	}
}

// ctrlPeerRead is the controller side: it reads what the switch sends
// upstream (BFD, barrier replies) and feeds the failure detector or hands
// the reply to the waiting barrier.
func (c *Cluster) ctrlPeerRead(n *node, conn net.Conn) {
	for {
		msg, err := proto.ReadMessage(conn)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *proto.BFDControl:
			n.bfdCtrl.Handle(protoToBFD(m), time.Now())
		case *proto.BarrierReply:
			select {
			case n.replies <- m.XID:
			default:
			}
		}
	}
}

// errPartitioned reports a control write suppressed by an injected
// control-plane partition.
var errPartitioned = fmt.Errorf("wire: control plane partitioned")

// writeToSwitch writes a controller→switch control message, honouring
// injected delay and partition faults.
func (c *Cluster) writeToSwitch(n *node, msg proto.Message) error {
	return c.writeControl(n, msg, false)
}

// writeToController writes a switch→controller control message, honouring
// injected delay and partition faults.
func (c *Cluster) writeToController(n *node, msg proto.Message) error {
	return c.writeControl(n, msg, true)
}

func (c *Cluster) writeControl(n *node, msg proto.Message, switchSide bool) error {
	if n.partitioned.Load() {
		return errPartitioned
	}
	if d := time.Duration(n.ctrlDelay.Load()); d > 0 {
		if !sleepCtx(c.ctx, d) {
			return c.ctx.Err()
		}
	}
	ctrl, peer := n.conns()
	conn := peer
	if switchSide {
		conn = ctrl
	}
	if conn == nil {
		return fmt.Errorf("wire: no control connection for node %d", n.id)
	}
	return proto.WriteMessage(conn, msg)
}

// InstallRule sends a FlowMod to a switch over its control connection, as
// it is: an Epoch of 0 passes the switch's fence, and any other is fenced
// (a stale one is how tests provoke, and how a deposed controller would
// suffer, a rejection).
func (c *Cluster) InstallRule(sw uint32, mod proto.FlowMod) error {
	n, ok := c.node(sw)
	if !ok {
		return fmt.Errorf("wire: no switch %d", sw)
	}
	return c.send(c.ctx, n, &mod)
}

// replyTimeout bounds the wait for a control request to go out and for
// its reply.
const replyTimeout = 5 * time.Second

// send writes msg to n, and again, with backoff, while the write fails on
// a control pipe that is closed and about to be replaced (after a
// controller restart, say) — until it goes through, n turns unreachable,
// replyTimeout passes or ctx ends (the sender deposed, or the cluster
// closing).
func (c *Cluster) send(ctx context.Context, n *node, msg proto.Message) error {
	deadline := time.Now().Add(replyTimeout)
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := c.writeToSwitch(n, msg)
		if err == nil || n.killed.Load() || n.partitioned.Load() || time.Now().After(deadline) {
			return err
		}
		if !sleepCtx(ctx, backoff(attempt, rand.Float64)) {
			return ctx.Err()
		}
	}
}

// barrier round-trips a barrier through switch sw's control connection,
// fencing the control messages sent to it before. Each barrier mints its
// own XID, so a reply to an earlier one that timed out is skipped.
func (c *Cluster) barrier(ctx context.Context, sw uint32) error {
	n, ok := c.node(sw)
	if !ok {
		return fmt.Errorf("wire: no switch %d", sw)
	}
	xid := c.xids.Add(1)
	n.replyMu.Lock()
	defer n.replyMu.Unlock()
	if err := c.send(ctx, n, &proto.BarrierReq{XID: xid}); err != nil {
		return err
	}
	timeout := time.After(replyTimeout)
	for {
		select {
		case got := <-n.replies:
			if got == xid {
				return nil
			}
		case <-timeout:
			return fmt.Errorf("wire: no reply from switch %d", sw)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// CacheLen returns the number of cache entries at a switch.
func (c *Cluster) CacheLen(sw uint32) int {
	n, ok := c.node(sw)
	if !ok {
		return 0
	}
	return n.sw.Table(proto.TableCache).Len()
}

// drainTimeout bounds how long Close waits for in-flight frames to reach a
// terminal point before tearing the cluster down.
const drainTimeout = time.Second

// Close gracefully stops the cluster: it stops accepting injections,
// drains in-flight data frames (bounded by drainTimeout), then shuts every
// goroutine down and waits for them. Close is idempotent.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		c.awaitQuiescence(0, drainTimeout)
		c.cancel()
		for _, n := range c.nodes {
			n.closeConns()
		}
		c.wg.Wait()
		if c.tsrv != nil {
			_ = c.tsrv.Close()
		}
		c.closeHA()
	})
	return nil
}

// noWaiter is awaited's value while nobody is in awaitQuiescence.
const noWaiter = ^uint64(0)

// awaitQuiescence blocks until target packets have completed and the
// cluster is drained — the quiescence predicate — and reports true, or
// false once limit has passed or the cluster has shut down. Nothing polls:
// the caller publishes the count it waits for and then checks the
// predicate, while the data plane writes a term of the predicate and then
// reads the published count (wakeIfQuiet). Both sides use sequentially
// consistent atomics, so whichever comes second sees the other and a
// wake-up cannot be lost. Any number of callers may wait at once: a wake
// wakes them all, and those not yet satisfied publish again.
func (c *Cluster) awaitQuiescence(target uint64, limit time.Duration) bool {
	horizon := time.NewTimer(limit)
	defer horizon.Stop()
	defer c.wakeWaiters() // the published count may be this caller's: withdraw it
	for {
		c.waitMu.Lock()
		woken := c.woken
		c.awaited.Store(min(target, c.awaited.Load()))
		c.waitMu.Unlock()
		if c.completed.Load() >= target && c.drained() {
			return true
		}
		select {
		case <-woken:
		case <-horizon.C:
			return false
		case <-c.ctx.Done():
			return false
		}
	}
}

// wakeWaiters withdraws the awaited count and wakes every waiter.
func (c *Cluster) wakeWaiters() {
	c.waitMu.Lock()
	c.awaited.Store(noWaiter)
	close(c.woken)
	c.woken = make(chan struct{})
	c.waitMu.Unlock()
}

// wakeIfQuiet follows every write that can make the quiescence predicate
// true — completed raised, an install applied or shed, a burst's ring
// slots released, a switch killed — and wakes the waiters if it has. The
// writes a burst makes are followed by one call, after its release
// (dataLoop). With nobody waiting, or completed short of what they wait
// for, it costs two atomic loads.
func (c *Cluster) wakeIfQuiet() {
	if c.completed.Load() >= c.awaited.Load() && c.drained() {
		c.wakeWaiters()
	}
}

// drained reports whether every live switch's input rings are empty —
// frames a burst has peeked and not yet released included — and every
// cache install queued for it has been applied.
func (c *Cluster) drained() bool {
	for _, n := range c.nodes {
		if n.killed.Load() {
			continue
		}
		if n.queueLen() > 0 || n.installsPending.Load() > 0 {
			return false
		}
	}
	return true
}

// sleepCtx sleeps d, returning false early if ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

var start = time.Now()

// nowSec is monotonic seconds since cluster package init, the time base
// the TCAM tables use in wire mode.
func nowSec() float64 { return time.Since(start).Seconds() }

// nowNS is monotonic nanoseconds since start — the hot path's clock.
func nowNS() int64 { return int64(time.Since(start)) }

// frameSec maps a frame's inject stamp onto the nowSec time base without
// another clock read.
func frameSec(f *dataFrame) float64 { return float64(f.injected) / 1e9 }
