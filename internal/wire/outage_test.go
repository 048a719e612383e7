package wire

import (
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/packet"
	"difane/internal/proto"
	"difane/internal/testutil"
)

// waitMeasure polls the cluster's measurements until cond passes.
func waitMeasure(t *testing.T, c *Cluster, what string, cond func(*core.Measurements) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cond(c.Measurements()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened (measurements %+v)", what, c.Measurements())
		}
		time.Sleep(time.Millisecond)
	}
}

// checkInstallsBypassController is the claim the controller-outage tests
// share: with the control plane out of reach, flows brand new to ingress
// still get their cache rule — the authority switch hands it to the
// ingress itself — and the second packet of each is a cache hit. firstSrc
// keeps the flows distinct from any the caller already sent.
func checkInstallsBypassController(t *testing.T, c *Cluster, ingress, firstSrc uint32) {
	t.Helper()
	const newFlows = 10
	base := c.Measurements()
	cached := c.CacheLen(ingress)
	inject := func() {
		for i := uint32(0); i < newFlows; i++ {
			if !c.Inject(ingress, httpHeader(firstSrc+i), 100) {
				t.Fatal("inject of a new flow failed")
			}
		}
	}
	inject()
	waitMeasure(t, c, "first packets of the new flows", func(m *core.Measurements) bool {
		return m.Delivered >= base.Delivered+newFlows
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.CacheLen(ingress) < cached+newFlows {
		if time.Now().After(deadline) {
			t.Fatalf("switch %d cached %d of %d new flows with the controller out of reach",
				ingress, c.CacheLen(ingress)-cached, newFlows)
		}
		time.Sleep(time.Millisecond)
	}
	redirects := c.Measurements().Redirects
	inject()
	waitMeasure(t, c, "second packets of the new flows", func(m *core.Measurements) bool {
		return m.Delivered >= base.Delivered+2*newFlows
	})
	m := c.Measurements()
	if m.Redirects != redirects {
		t.Fatalf("%d second packets took the detour again", m.Redirects-redirects)
	}
	if m.Drops.Hole != base.Drops.Hole || m.Drops.Unreachable != base.Drops.Unreachable ||
		m.Drops.AuthorityQueue != base.Drops.AuthorityQueue {
		t.Fatalf("packets lost: %+v (baseline %+v)", m.Drops, base.Drops)
	}
}

// TestControllerOutageRideThrough is the kill-and-restart-controller
// scenario: mid-trace the controller dies; switches must keep serving from
// cached and authority rules with zero packet loss, keep caching new
// flows, and see the controller return with a bumped epoch.
func TestControllerOutageRideThrough(t *testing.T) {
	c := newFailoverCluster(t)
	// Warm the ingress cache at switch 0 so there is a cached flow to
	// serve during the outage.
	if !c.Inject(0, httpHeader(1), 100) {
		t.Fatal("inject failed")
	}
	awaitDelivery(t, c)
	awaitCache(t, c, 0)
	base := c.Measurements()
	epochBefore := c.Epoch()

	if !c.KillController() {
		t.Fatal("KillController failed")
	}
	if c.KillController() {
		t.Fatal("second KillController must report false")
	}

	// Mid-outage traffic: the cached flow forwards from the ingress cache,
	// and brand-new flows complete their setup entirely in the data plane
	// (redirect → authority rules → tunnel, install → ingress).
	const cachedPkts = 20
	for i := 0; i < cachedPkts; i++ {
		if !c.Inject(0, httpHeader(1), 100) {
			t.Fatal("inject of cached flow failed mid-outage")
		}
	}
	waitMeasure(t, c, "mid-outage deliveries", func(m *core.Measurements) bool {
		return m.Delivered >= base.Delivered+cachedPkts
	})
	if m := c.Measurements(); m.Redirects != base.Redirects {
		t.Fatalf("cached flow redirected %d times mid-outage", m.Redirects-base.Redirects)
	}
	checkInstallsBypassController(t, c, 1, 200)
	if m := c.Measurements(); m.ControllerOutages != 1 {
		t.Fatalf("outages = %d, want 1", m.ControllerOutages)
	}

	if !c.RestoreController() {
		t.Fatal("RestoreController failed")
	}
	if c.RestoreController() {
		t.Fatal("second RestoreController must report false")
	}
	if got := c.Epoch(); got != epochBefore+1 {
		t.Fatalf("restart epoch = %d, want %d (restarted controller must fence the old one)",
			got, epochBefore+1)
	}
	if m := c.Measurements(); m.PolicyRuleInstalls != base.PolicyRuleInstalls || m.PolicyRuleDeletes != base.PolicyRuleDeletes {
		t.Fatalf("the restart's Reconcile moved authority rules on a converged cluster: %d/%d then %d/%d",
			base.PolicyRuleInstalls, base.PolicyRuleDeletes, m.PolicyRuleInstalls, m.PolicyRuleDeletes)
	}
	if st := c.Status(); st.ControllerDown {
		t.Fatal("status still reports the controller down after restore")
	}
}

// TestPartitionedIngressStillCaches: an ingress switch whose control link
// is severed keeps forwarding, and the authority switches keep installing
// its cache rules — the install never rides a control connection.
func TestPartitionedIngressStillCaches(t *testing.T) {
	c := newFailoverCluster(t)
	if !c.PartitionControl(1) {
		t.Fatal("PartitionControl(1) failed")
	}
	checkInstallsBypassController(t, c, 1, 300)
}

// TestLeaderKillStillCaches: under HA, while the leader is dead and the
// election has not yet seated a successor, new flows are still cached.
func TestLeaderKillStillCaches(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2, 3},
		Policy:      failoverPolicy(),
		Strategy:    core.StrategyExact,
		// Long enough that the check below runs inside the leaderless gap.
		HA: HAConfig{Replicas: 3, ElectionDelay: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	awaitLeader(t, c)
	epochBefore := c.Epoch()
	if !c.KillController() {
		t.Fatal("KillController failed")
	}
	checkInstallsBypassController(t, c, 1, 400)
	if !c.ControllerDown() {
		t.Fatal("a leader was seated before the new flows were cached")
	}
	awaitLeader(t, c)
	if e := c.Epoch(); e <= epochBefore {
		t.Fatalf("epoch = %d after the election, want > %d", e, epochBefore)
	}
}

// TestStaleEpochInstallRejected: a FlowMod carrying an epoch older than
// the switch's fence must be refused, counted, and answered with an
// EpochReport — the invariant that keeps a zombie controller's stragglers
// out of the tables.
func TestStaleEpochInstallRejected(t *testing.T) {
	c := newFailoverCluster(t)
	fresh := proto.FlowMod{Table: proto.TableAuthority, Op: proto.OpAdd, Epoch: 5,
		Rule: flowspace.Rule{ID: 777, Priority: 99, Match: flowspace.MatchAll().WithExact(flowspace.FTPDst, 7777),
			Action: flowspace.Action{Kind: flowspace.ActDrop}}}
	if err := c.InstallRule(2, fresh); err != nil { // raises the switch's fence to 5
		t.Fatal(err)
	}
	stale := proto.FlowMod{Table: proto.TableAuthority, Op: proto.OpAdd, Epoch: 3,
		Rule: flowspace.Rule{ID: 778, Priority: 99, Match: flowspace.MatchAll().WithExact(flowspace.FTPDst, 7778),
			Action: flowspace.Action{Kind: flowspace.ActDrop}}}
	if err := c.InstallRule(2, stale); err != nil {
		t.Fatal(err) // the write succeeds; the switch rejects on receipt
	}
	if err := c.Barrier(2, 1); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Stats(2, 777, 2); err != nil || !rep.OK {
		t.Fatalf("fenced install with current epoch missing: %v %+v", err, rep)
	}
	if rep, err := c.Stats(2, 778, 3); err != nil || rep.OK {
		t.Fatalf("stale-epoch install must not land: %v %+v", err, rep)
	}
	waitMeasure(t, c, "stale-install rejection", func(m *core.Measurements) bool {
		return m.StaleInstallsRejected == 1
	})
	// The EpochReport surfaces the switch's fence to the controller.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got uint64
		for _, ss := range c.Status().Switches {
			if ss.ID == 2 {
				got = ss.ReportedEpoch
			}
		}
		if got == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch report never arrived (got %d)", got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMissStormShedding: with a redirect budget configured, a storm of
// cache misses must be shed at the ingress (bounded authority queues, no
// collapse) with every packet accounted for: injected = delivered +
// policy-dropped + shed + other drops.
func TestMissStormShedding(t *testing.T) {
	cfg := reconnectCfg()
	cfg.Overload = OverloadConfig{RedirectRate: 50, RedirectBurst: 4,
		CacheInstallRate: 50, CacheInstallBurst: 4}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const storm = 300
	injected := 0
	for i := 0; i < storm; i++ {
		// Distinct sources: every packet is a genuine miss (exact caching).
		if c.Inject(0, httpHeader(uint32(1000+i)), 100) {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("nothing injected")
	}
	// Every injected packet must reach a terminal accounting point.
	deadline := time.Now().Add(10 * time.Second)
	for c.completed.Load() < uint64(injected) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d packets completed", c.completed.Load(), injected)
		}
		time.Sleep(time.Millisecond)
	}
	m := c.Measurements()
	if m.Drops.RedirectShed == 0 {
		t.Fatalf("a 300-flow storm against a 50/s budget must shed (drops %+v)", m.Drops)
	}
	total := m.Delivered + m.Drops.Policy + m.Drops.RedirectShed +
		m.Drops.Hole + m.Drops.Unreachable + m.Drops.AuthorityQueue
	if total != uint64(injected) {
		t.Fatalf("accounting does not reconcile: %d injected, %d accounted (%+v, delivered %d)",
			injected, total, m.Drops, m.Delivered)
	}
	if m.Delivered == 0 {
		t.Fatal("shedding must not starve admitted traffic")
	}
	if pq := c.PeakQueueDepth(); pq <= 0 || pq > c.cfg.QueueDepth {
		t.Fatalf("peak queue depth %d out of bounds (0, %d]", pq, c.cfg.QueueDepth)
	}
}

// TestCacheInstallShedding: the authority-side token bucket suppresses
// cache installs under a storm without hurting reachability.
func TestCacheInstallShedding(t *testing.T) {
	cfg := reconnectCfg()
	cfg.Overload = OverloadConfig{CacheInstallRate: 10, CacheInstallBurst: 2}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const flows = 50
	for i := 0; i < flows; i++ {
		if !c.Inject(0, httpHeader(uint32(3000+i)), 100) {
			t.Fatal("inject failed")
		}
	}
	waitMeasure(t, c, "storm deliveries", func(m *core.Measurements) bool {
		return m.Delivered >= flows
	})
	m := c.Measurements()
	if m.CacheInstallsShed == 0 {
		t.Fatalf("install bucket never shed under %d rapid misses", flows)
	}
	if m.Drops.Hole != 0 || m.Drops.Unreachable != 0 {
		t.Fatalf("install shedding must not lose packets: %+v", m.Drops)
	}
}

// injectRedirects plays the ingress's part for n brand-new flows: it puts
// each flow's first packet, already encapsulated as a redirect from
// ingress, on the injection ring of the authority switch that owns it.
// What the authority does next — tunnel the packet on, hand the install to
// ingress — is the real path.
func injectRedirects(t *testing.T, c *Cluster, ingress, firstSrc uint32, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		h := httpHeader(firstSrc + uint32(i))
		auth := primaryFor(t, c, h.Key())
		n, ring := c.openInjection(auth)
		if ring == nil {
			t.Fatalf("authority %d takes no injection", auth)
		}
		f := ring.reserve(0)
		if f == nil {
			n.injectMu.Unlock()
			t.Fatalf("redirect %d not accepted at authority %d", i, auth)
		}
		*f = dataFrame{
			hdr:      h,
			size:     100,
			reason:   packet.EncapRedirect,
			encapBy:  uint16(c.switches[ingress].slot),
			injected: nowNS(),
			via:      1,
		}
		c.commitInjected(n, ring, 1)
		n.injectMu.Unlock()
	}
}

// TestInstallQueueShedding: an install the ingress cannot take — its queue
// is full, or it is dead — is counted in CacheInstallsShed and costs
// nothing else: the packet that triggered it is still delivered and
// injected = delivered + drops stays exact.
func TestInstallQueueShedding(t *testing.T) {
	reconciles := func(t *testing.T, c *Cluster, sent int) *core.Measurements {
		t.Helper()
		waitMeasure(t, c, "deliveries", func(m *core.Measurements) bool {
			return m.Delivered >= uint64(sent)
		})
		m := c.Measurements()
		if m.Delivered != uint64(sent) || m.Drops != (core.Drops{}) || c.completed.Load() != uint64(sent) {
			t.Fatalf("sent %d, completed %d, delivered %d, drops %+v",
				sent, c.completed.Load(), m.Delivered, m.Drops)
		}
		return m
	}

	t.Run("full queue", func(t *testing.T) {
		c := startCluster(t, slack(failoverConfig()))
		ingress := c.switches[1]
		depth := cap(ingress.installQ)
		// Stall the ingress between popping an install and applying it: its
		// data goroutine waits for the cache table's write lock behind this
		// view. (No call on that table from here until Release.)
		view := ingress.sw.Table(proto.TableCache).AcquireView()
		released := false
		defer func() {
			if !released {
				view.Release()
			}
		}()
		injectRedirects(t, c, 1, 1000, 1)
		deadline := time.Now().Add(5 * time.Second)
		for len(ingress.installQ) != 0 || ingress.installsPending.Load() != 1 {
			if time.Now().After(deadline) {
				t.Fatal("ingress never picked the first install up")
			}
			time.Sleep(time.Millisecond)
		}
		// depth more fill the queue; every one after that is shed.
		const extra = 40
		injectRedirects(t, c, 1, 2000, depth+extra)
		m := reconciles(t, c, 1+depth+extra)
		if m.CacheInstallsShed != extra {
			t.Fatalf("shed %d installs, want %d", m.CacheInstallsShed, extra)
		}
		if c.drained() {
			t.Fatal("drained() with installs still queued")
		}
		view.Release()
		released = true
		d := Deploy(c)
		d.Run(10)
		if got := c.CacheLen(1); !c.drained() || got != 1+depth {
			t.Fatalf("after Run: drained=%v, %d cache rules at the ingress, want %d",
				c.drained(), got, 1+depth)
		}
	})

	t.Run("killed ingress", func(t *testing.T) {
		c := startCluster(t, slack(failoverConfig()))
		c.KillSwitch(1)
		const flows = 25
		injectRedirects(t, c, 1, 1000, flows)
		if m := reconciles(t, c, flows); m.CacheInstallsShed != flows {
			t.Fatalf("shed %d installs toward a dead ingress, want %d", m.CacheInstallsShed, flows)
		}
		if !c.drained() {
			t.Fatal("installs toward a dead ingress left the cluster undrained")
		}
	})
}

// TestNoGoroutineLeaksFaultDuringClose interleaves fault hooks (including
// a controller kill) with Close to check the shutdown path tolerates
// faults firing mid-teardown without leaking goroutines.
func TestNoGoroutineLeaksFaultDuringClose(t *testing.T) {
	t.Run("pipe", func(t *testing.T) {
		check := testutil.CheckGoroutineLeaks(t, 2)
		c, err := NewCluster(reconnectCfg())
		if err != nil {
			t.Fatal(err)
		}
		c.Inject(0, httpHeader(1), 100)
		awaitDelivery(t, c)
		// Race the fault hooks against Close.
		done := make(chan struct{})
		go func() {
			c.KillSwitch(2)
			c.PartitionControl(1)
			c.KillController()
			c.RestoreController()
			c.KillSwitch(3)
			close(done)
		}()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
		check()
	})
}
