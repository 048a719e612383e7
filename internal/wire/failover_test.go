package wire

import (
	"slices"
	"testing"
	"time"

	"difane/internal/bfd"
	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/packet"
	"difane/internal/proto"
	"difane/internal/telemetry"
)

// failoverPolicy forwards everything to switch 4, which is never an
// authority, so killing an authority can never strand an egress.
func failoverPolicy() []flowspace.Rule {
	return []flowspace.Rule{
		{ID: 1, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}},
		{ID: 3, Priority: 0, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}},
	}
}

// failoverConfig is a cluster with two authorities (so every partition has
// a distinct backup) and the default, fast BFD timers (6 ms to a verdict).
func failoverConfig() ClusterConfig {
	return ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2, 3},
		Policy:      failoverPolicy(),
		// Exact caching keeps every new source a genuine miss, so the
		// post-kill misses below are guaranteed to exercise the backup.
		Strategy: core.StrategyExact,
	}
}

func newFailoverCluster(t *testing.T) *Cluster {
	t.Helper()
	return startCluster(t, failoverConfig())
}

// primaryFor returns the primary authority of the partition owning k.
func primaryFor(t *testing.T, c *Cluster, k flowspace.Key) uint32 {
	t.Helper()
	a := c.Assignment()
	for i, p := range a.Partitions {
		if p.Region.Matches(k) {
			return a.Primary[i]
		}
	}
	t.Fatal("no partition owns the key")
	return 0
}

// markDeadOnly flips n's verdict to dead without markDead's promotion. It
// stamps the death time first, as markDead does, so checkLiveness holds
// the verdict for its holddown instead of reviving n on its next tick.
func markDeadOnly(n *node) {
	n.deadAt.Store(nowNS())
	n.alive.Store(false)
}

// awaitDead waits for the failure detector's formal death verdict (not
// just the killed flag, which flips synchronously).
func awaitDead(t *testing.T, c *Cluster, id uint32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.NodeAlive(id) || c.Measurements().AuthorityDeaths == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("switch %d never detected dead", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func awaitCache(t *testing.T, c *Cluster, sw uint32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.CacheLen(sw) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cache install never arrived at switch %d", sw)
		}
		time.Sleep(time.Millisecond)
	}
}

// deathCauses returns the Value of every EvDeath the flight recorder holds
// for switch id: which detector fired (deathBFD, deathRedirectAck, ...).
func deathCauses(c *Cluster, id uint32) []uint64 {
	var causes []uint64
	for _, ev := range c.TraceEvents(telemetry.Filter{
		Node: &id, Kinds: []telemetry.EventKind{telemetry.EvDeath},
	}) {
		causes = append(causes, ev.Value)
	}
	return causes
}

// TestBFDKeepsIdleNodesAlive: at the default timers (6 ms to a verdict)
// every BFD session of a fault-free, idle cluster comes Up and stays Up,
// and no switch is declared dead over fifty detect times.
func TestBFDKeepsIdleNodesAlive(t *testing.T) {
	c := newFailoverCluster(t)
	time.Sleep(50 * c.cfg.BFD.DetectTime())
	for id, info := range c.BFDSessions() {
		if !c.NodeAlive(id) {
			t.Errorf("switch %d marked dead without faults", id)
		}
		if info.State != bfd.StateUp {
			t.Errorf("switch %d: BFD session %v, want up", id, info.State)
		}
	}
	if m := c.Measurements(); m.AuthorityDeaths != 0 || m.FailoversPromoted != 0 {
		t.Errorf("deaths = %d, promoted = %d, want 0", m.AuthorityDeaths, m.FailoversPromoted)
	}
}

// TestDeathNamesTheDetector: EvDeath's Value says which detector fired —
// BFD for a killed switch, redirect-ack for an authority whose data plane
// has stalled while its BFD session stays Up.
func TestDeathNamesTheDetector(t *testing.T) {
	cfg := slack(failoverConfig())
	cfg.Telemetry.Tracing = true
	c := startCluster(t, cfg)

	c.KillSwitch(1)
	awaitDead(t, c, 1)
	if got := deathCauses(c, 1); !slices.Equal(got, []uint64{deathBFD}) {
		t.Errorf("killed switch: death causes %v, want [%d] (BFD)", got, deathBFD)
	}

	// Wedge an authority's data loop inside the burst that takes the
	// first miss; the second goes unanswered.
	h := httpHeader(50)
	stalled := c.byID(primaryFor(t, c, h.Key()))
	stalled.mu.Lock()
	defer stalled.mu.Unlock()
	c.Inject(0, h, 100)
	time.Sleep(20 * time.Millisecond)
	c.Inject(0, h, 100)
	deadline := time.Now().Add(3 * time.Second)
	for c.NodeAlive(stalled.id) {
		if time.Now().After(deadline) {
			t.Fatalf("stalled authority %d never declared dead", stalled.id)
		}
		time.Sleep(time.Millisecond)
	}
	if got := deathCauses(c, stalled.id); !slices.Equal(got, []uint64{deathRedirectAck}) {
		t.Errorf("stalled authority: death causes %v, want [%d] (redirect-ack)", got, deathRedirectAck)
	}
	if !stalled.bfdCtrl.Up() {
		t.Error("the stalled authority's BFD session went down: not a data-plane-only stall")
	}
}

func TestKillSwitchDetectedDead(t *testing.T) {
	c := newFailoverCluster(t)
	if !c.KillSwitch(2) {
		t.Fatal("KillSwitch(2) failed")
	}
	awaitDead(t, c, 2)
	if m := c.Measurements(); m.AuthorityDeaths == 0 {
		t.Error("death not counted")
	}
	if c.KillSwitch(99) {
		t.Error("KillSwitch of unknown switch must fail")
	}
	// Killing twice is a no-op, not a panic.
	c.KillSwitch(2)
}

// TestFailoverE2E is the acceptance scenario: with two authorities per
// partition, killing a primary mid-trace loses zero packets of
// already-cached flows, and subsequent cache misses are delivered via the
// backup.
func TestFailoverE2E(t *testing.T) {
	c := newFailoverCluster(t)

	// Flow A: first packet detours, cache rule lands at ingress 0.
	if !c.Inject(0, httpHeader(1), 100) {
		t.Fatal("inject failed")
	}
	if d := awaitDelivery(t, c); !d.Detour || d.Egress != 4 {
		t.Fatalf("flow A first packet: %+v", d)
	}
	awaitCache(t, c, 0)

	// Kill the primary authority of the partition that will serve flow B's
	// miss, and wait for the failure detector's verdict.
	missKey := httpHeader(50).Key()
	primary := primaryFor(t, c, missKey)
	if !c.KillSwitch(primary) {
		t.Fatal("kill failed")
	}
	awaitDead(t, c, primary)

	// Zero loss for the cached flow: every packet goes direct, none touch
	// the dead authority.
	const cached = 50
	for i := 0; i < cached; i++ {
		if !c.Inject(0, httpHeader(1), 100) {
			t.Fatal("inject of cached flow failed")
		}
	}
	for i := 0; i < cached; i++ {
		d := awaitDelivery(t, c)
		if d.Detour || d.Egress != 4 {
			t.Fatalf("cached packet %d after kill: %+v", i, d)
		}
	}

	// Subsequent cache misses (fresh ingress, empty cache) are served by
	// the backup authority.
	const misses = 5
	for i := 0; i < misses; i++ {
		if !c.Inject(1, httpHeader(uint32(50+i)), 100) {
			t.Fatal("inject of miss flow failed")
		}
		d := awaitDelivery(t, c)
		if !d.Detour || d.Egress != 4 {
			t.Fatalf("miss %d after kill: %+v", i, d)
		}
	}

	// The promotion is counted only once the controller's withdrawal has
	// been fenced on every live switch, and by then the misses above may
	// already have gone straight to the backup without a local failover:
	// wait for the count rather than read it early.
	m := c.Measurements()
	for deadline := time.Now().Add(replyTimeout); m.FailoversLocal+m.FailoversPromoted == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m = c.Measurements()
	}
	if m.AuthorityDeaths == 0 {
		t.Error("no death recorded")
	}
	if m.FailoversLocal+m.FailoversPromoted == 0 {
		t.Error("no failover recorded")
	}
	if got := m.Drops.Unreachable + m.Drops.Hole + m.Drops.AuthorityQueue; got != 0 {
		t.Errorf("lost %d packets across the failover", got)
	}
}

// TestStalledAuthorityDetectedByRedirectAck: an authority whose control
// plane still answers BFD but whose data plane has stopped
// is found out by the redirects it leaves unacknowledged alone, and misses
// then reach the backup while the stall lasts. Holding the authority's
// node lock wedges its data loop inside the burst that took the first
// miss, after that burst's acknowledgement; the second miss is the one
// that goes unanswered.
func TestStalledAuthorityDetectedByRedirectAck(t *testing.T) {
	c := startCluster(t, slack(failoverConfig()))
	a := c.Assignment()
	var keys []flowspace.Key // fresh misses sharing one partition
	part := -1
	for src := uint32(50); len(keys) < 3 && src < 50+4096; src++ {
		k := httpHeader(src).Key()
		for i, p := range a.Partitions {
			if p.Region.Matches(k) && (part < 0 || part == i) {
				part = i
				keys = append(keys, k)
			}
		}
	}
	if len(keys) < 3 || a.Primary[part] == a.Backup[part] {
		t.Fatalf("no partition with a distinct backup and three keys (%d)", len(keys))
	}
	primary, backup := c.byID(a.Primary[part]), c.byID(a.Backup[part])
	backupHits := backup.sw.Table(proto.TableAuthority).Hits.Load()

	primary.mu.Lock()
	locked := true
	defer func() {
		if locked {
			primary.mu.Unlock()
		}
	}()
	c.Inject(0, packet.HeaderFromKey(keys[0]), 100)
	time.Sleep(20 * time.Millisecond)
	c.Inject(0, packet.HeaderFromKey(keys[1]), 100)

	deadline := time.Now().Add(3 * time.Second)
	for c.NodeAlive(primary.id) {
		if time.Now().After(deadline) {
			t.Fatalf("stalled authority %d never declared dead", primary.id)
		}
		time.Sleep(time.Millisecond)
	}
	if !c.Inject(1, packet.HeaderFromKey(keys[2]), 100) {
		t.Fatal("inject failed")
	}
	if d := awaitDelivery(t, c); !d.Detour || d.Header.Key() != keys[2] {
		t.Fatalf("fresh miss while the authority is stalled: %+v", d)
	}
	if got := backup.sw.Table(proto.TableAuthority).Hits.Load(); got == backupHits {
		t.Fatal("the fresh miss was not answered by the backup authority")
	}
	primary.mu.Unlock()
	locked = false
}

// TestIngressLocalFailover pins down the data-plane half in isolation: the
// detector's verdict alone (no controller-driven promotion) is enough for
// an ingress to re-point its partition rule at the backup.
func TestIngressLocalFailover(t *testing.T) {
	c := newFailoverCluster(t)
	missKey := httpHeader(50).Key()
	primary := primaryFor(t, c, missKey)
	// Flip the verdict directly, bypassing markDead so promoteBackups
	// never runs and only the ingress-local path can save the packet.
	markDeadOnly(c.byID(primary))

	if !c.Inject(1, httpHeader(50), 100) {
		t.Fatal("inject failed")
	}
	d := awaitDelivery(t, c)
	if !d.Detour || d.Egress != 4 {
		t.Fatalf("miss not delivered via backup: %+v", d)
	}
	if m := c.Measurements(); m.FailoversLocal == 0 {
		t.Error("local failover not recorded")
	}
}

// TestKilledEgressAccounts: frames bound for a killed switch end as
// unreachable drops at the sender instead of sitting in a ring nobody
// reads, so every injected packet still reaches a verdict.
func TestKilledEgressAccounts(t *testing.T) {
	c := newFailoverCluster(t)
	c.Inject(0, httpHeader(1), 100)
	awaitDelivery(t, c)
	c.KillSwitch(4) // the policy's only egress
	const n = 20
	for i := 0; i < n; i++ {
		if !c.Inject(0, httpHeader(uint32(i+2)), 100) {
			t.Fatal("inject failed")
		}
	}
	waitMeasure(t, c, "verdicts for frames toward the killed egress", func(m *core.Measurements) bool {
		return m.Delivered == 1 && m.Drops.Unreachable == n
	})
}

func TestFaultHooksUnknownSwitch(t *testing.T) {
	c := newFailoverCluster(t)
	if c.PartitionControl(99) || c.HealControl(99) || c.DelayControl(99, time.Millisecond) {
		t.Error("fault hooks must reject unknown switches")
	}
}

func TestDelayControlSlowsInstalls(t *testing.T) {
	c := newFailoverCluster(t)
	if !c.DelayControl(0, 30*time.Millisecond) {
		t.Fatal("DelayControl failed")
	}
	startT := time.Now()
	if err := c.barrier(c.ctx, 0); err != nil {
		t.Fatal(err)
	}
	// Request and reply each cross the delayed control plane once.
	if took := time.Since(startT); took < 30*time.Millisecond {
		t.Errorf("barrier took %v, want ≥ 30ms under injected delay", took)
	}
	c.DelayControl(0, 0)
}

func TestMeasurementsSnapshotIsolated(t *testing.T) {
	c := newFailoverCluster(t)
	c.Inject(0, httpHeader(1), 100)
	awaitDelivery(t, c)
	m1 := c.Measurements()
	n1 := m1.FirstPacketDelay.N()
	// Mutating the snapshot must not touch the live measurements.
	m1.FirstPacketDelay.Add(42)
	m2 := c.Measurements()
	if m2.FirstPacketDelay.N() != n1 {
		t.Errorf("snapshot mutation leaked into live measurements")
	}
}

func TestHeaderRoundTripForDeployment(t *testing.T) {
	// The Deployment adapter reconstructs headers from keys; the round
	// trip must preserve classification.
	h := httpHeader(7)
	k := h.Key()
	h2 := packet.HeaderFromKey(k)
	if h2.Key() != k {
		t.Fatal("HeaderFromKey round trip changed the key")
	}
}

// Promotion withdraws, and counts, the partition rules that exist: a
// partition with one authority was installed without a backup rule, so
// promoting away from that authority sends one delete per partition (it
// sent, and FailoversPromoted counted, a second one for the backup rule
// that was never there), and restoring puts the same rules back.
func TestPromoteAndRestoreMoveTheInstalledRules(t *testing.T) {
	cfg := slack(failoverConfig())
	cfg.Authorities = []uint32{2}
	c := startCluster(t, cfg)
	parts := len(c.Assignment().Partitions)
	installed := c.TableRules(0, proto.TablePartition)
	if len(installed) != parts {
		t.Fatalf("switch 0 holds %d partition rules for %d single-authority partitions", len(installed), parts)
	}
	markDeadOnly(c.byID(2)) // the verdict alone: promoteBackups is called by hand
	c.promoteBackups(2)
	fence := func() {
		t.Helper()
		for _, sw := range []uint32{0, 2} { // what was sent has been applied
			if err := c.barrier(c.ctx, sw); err != nil {
				t.Fatal(err)
			}
		}
	}
	fence()
	if got := c.Measurements().FailoversPromoted; got != uint64(parts) {
		t.Fatalf("promotion counted %d rules, want the %d that were installed", got, parts)
	}
	if left := c.TableRules(0, proto.TablePartition); len(left) != 0 {
		t.Fatalf("switch 0 still redirects to the dead authority: %v", left)
	}
	if kept := c.TableRules(2, proto.TablePartition); len(kept) != parts {
		t.Fatalf("the dead switch itself was sent the withdrawal: %d rules left", len(kept))
	}
	c.byID(2).alive.Store(true)
	c.control(func(ctl *core.Controller) { ctl.OnTopologyChange() }) // markAlive's restore
	fence()
	if back := c.TableRules(0, proto.TablePartition); len(back) != parts || back[0] != installed[0] {
		t.Fatalf("restore left %v, want %v", back, installed)
	}
}
