package wire

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/journal"
	"difane/internal/proto"
	"difane/internal/testutil"
	"difane/internal/workload"
)

// newHACluster builds a cluster with three controller replicas and a fast
// election, over the failover topology (two authorities, so a leader kill
// can be combined with switch kills).
func newHACluster(t *testing.T) *Cluster {
	t.Helper()
	return startCluster(t, ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2, 3},
		Policy:      failoverPolicy(),
		Strategy:    core.StrategyExact,
		HA:          HAConfig{Replicas: 3, ElectionDelay: 5 * time.Millisecond},
	})
}

// awaitLeader waits for some replica to hold office.
func awaitLeader(t testing.TB, c *Cluster) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if lid := c.Leader(); lid >= 0 && !c.ControllerDown() {
			return lid
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader elected")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaderKillAutoFailover is the HA acceptance scenario: killing the
// leader needs no RestoreController — the surviving replicas elect a new
// leader, the epoch fences the dead one out, and the control plane (rule
// installs) works again without manual intervention.
func TestLeaderKillAutoFailover(t *testing.T) {
	c := newHACluster(t)
	if lid := awaitLeader(t, c); lid != 0 {
		t.Fatalf("initial leader = %d, want 0", lid)
	}
	epochBefore := c.Epoch()

	if !c.KillController() {
		t.Fatal("KillController failed")
	}
	if c.HAStatus().Replicas[0].Alive {
		t.Error("killed leader replica still alive")
	}

	// No RestoreController: the election must seat a new leader on its own.
	newLeader := awaitLeader(t, c)
	if newLeader == 0 {
		t.Fatalf("leadership did not move off the killed replica")
	}
	if e := c.Epoch(); e <= epochBefore {
		t.Errorf("epoch = %d after election, want > %d", e, epochBefore)
	}
	m := c.Measurements()
	if m.LeaderElections != 1 {
		t.Errorf("LeaderElections = %d, want 1", m.LeaderElections)
	}
	if m.LeaderElection.N() == 0 {
		t.Error("no election duration recorded")
	}
	if m.ControllerOutages != 1 {
		t.Errorf("ControllerOutages = %d, want 1", m.ControllerOutages)
	}

	// The new leader's control plane works: an install round-trips, and
	// traffic (including the authority detour) still flows.
	mod := proto.FlowMod{Table: proto.TablePartition, Op: proto.OpAdd,
		Rule: failoverPolicy()[0], Epoch: c.Epoch()}
	mod.Rule.ID = 999_999
	if err := c.InstallRule(0, mod); err != nil {
		t.Fatalf("install under new leader: %v", err)
	}
	if !c.Inject(0, httpHeader(1), 100) {
		t.Fatal("inject failed")
	}
	if d := awaitDelivery(t, c); d.Egress != 4 {
		t.Fatalf("delivery after failover: %+v", d)
	}

	// A second kill moves leadership again.
	if !c.KillController() {
		t.Fatal("second KillController failed")
	}
	third := awaitLeader(t, c)
	if third == newLeader {
		t.Fatalf("leadership did not move off second killed replica")
	}
	if m := c.Measurements(); m.LeaderElections != 2 {
		t.Errorf("LeaderElections = %d after second kill, want 2", m.LeaderElections)
	}
}

// TestKillAllReplicasNeedsRestore: with every replica dead there is nobody
// to elect; RestoreController revives the set and promotes a leader.
func TestKillAllReplicasNeedsRestore(t *testing.T) {
	c := newHACluster(t)
	for kills := 0; kills < 3; kills++ {
		deadline := time.Now().Add(5 * time.Second)
		for !c.KillController() {
			// Elections are in flight; wait for a leader to kill.
			if time.Now().After(deadline) {
				t.Fatalf("kill %d never found a leader", kills)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if !c.ControllerDown() {
		t.Fatal("controller not down with all replicas killed")
	}
	if c.Leader() >= 0 {
		t.Fatalf("leader = %d with all replicas killed, want none", c.Leader())
	}
	epochBefore, m0 := c.Epoch(), c.Measurements()
	if !c.RestoreController() {
		t.Fatal("RestoreController failed")
	}
	awaitLeader(t, c)
	if e := c.Epoch(); e <= epochBefore {
		t.Errorf("epoch = %d after full restore, want > %d", e, epochBefore)
	}
	if m := c.Measurements(); m.PolicyRuleInstalls != m0.PolicyRuleInstalls || m.PolicyRuleDeletes != m0.PolicyRuleDeletes {
		t.Errorf("the restore's Reconcile moved authority rules on a converged cluster")
	}
	for _, r := range c.HAStatus().Replicas {
		if !r.Alive {
			t.Errorf("replica %d not revived", r.ID)
		}
	}
}

// TestLeaderChurnNoGoroutineLeak hammers kill/restore cycles and asserts
// the cluster tears down to the baseline goroutine count — elections,
// BFD writers, and reconnect loops must all terminate.
func TestLeaderChurnNoGoroutineLeak(t *testing.T) {
	check := testutil.CheckGoroutineLeaks(t, 4)
	c, err := NewCluster(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2, 3},
		Policy:      failoverPolicy(),
		Strategy:    core.StrategyExact,
		HA:          HAConfig{Replicas: 3, ElectionDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		deadline := time.Now().Add(5 * time.Second)
		for !c.KillController() {
			if time.Now().After(deadline) {
				t.Fatal("no leader to kill")
			}
			time.Sleep(time.Millisecond)
		}
		awaitLeader(t, c)
		c.RestoreController() // revive the dead replica for the next round
		// Traffic keeps flowing across the churn.
		if !c.Inject(0, httpHeader(uint32(i+1)), 100) {
			t.Fatal("inject failed")
		}
		awaitDelivery(t, c)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestStaleLeaderInstallFenced: after an election the old leader's epoch
// is stale; a FlowMod stamped with it must be rejected by every switch.
func TestStaleLeaderInstallFenced(t *testing.T) {
	c := newHACluster(t)
	awaitLeader(t, c)
	staleEpoch := c.Epoch()

	if !c.KillController() {
		t.Fatal("KillController failed")
	}
	awaitLeader(t, c)

	// First push a current-epoch install so the switch's fence has
	// observed the new epoch.
	mod := proto.FlowMod{Table: proto.TablePartition, Op: proto.OpAdd,
		Rule: failoverPolicy()[0], Epoch: c.Epoch()}
	mod.Rule.ID = 999_998
	if err := c.InstallRule(1, mod); err != nil {
		t.Fatalf("fresh install: %v", err)
	}

	// Now replay the dead leader's stamp.
	rejBefore := c.Measurements().StaleInstallsRejected
	stale := mod
	stale.Rule.ID = 999_997
	stale.Epoch = staleEpoch
	_ = c.InstallRule(1, stale)
	deadline := time.Now().Add(5 * time.Second)
	for c.Measurements().StaleInstallsRejected == rejBefore {
		if time.Now().After(deadline) {
			t.Fatal("stale-epoch install was not rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBFDDetectsKillWithinTwiceDetectTime: a switch killed once its BFD
// session is Up is declared dead by BFD within twice the configured detect
// time — well inside the redirect-ack timeout's 300 ms floor, so no other
// detector could have made the verdict.
func TestBFDDetectsKillWithinTwiceDetectTime(t *testing.T) {
	cfg := failoverConfig()
	cfg.BFD = BFDConfig{Interval: 20 * time.Millisecond, DetectMult: 3}
	c := startCluster(t, cfg)
	if !c.KillSwitch(2) {
		t.Fatal("kill failed")
	}
	awaitDead(t, c, 2)
	d := c.Measurements().FailoverDetection
	if d.N() != 1 {
		t.Fatalf("%d detection latencies recorded, want 1", d.N())
	}
	bound := 2 * cfg.BFD.DetectTime()
	t.Logf("detection: %.1fms (detect time %v)", d.Max()*1e3, cfg.BFD.DetectTime())
	if got := time.Duration(d.Max() * float64(time.Second)); got > bound {
		t.Errorf("BFD detection took %v, want ≤ %v", got, bound)
	}
}

// TestHAStatusSurface exercises the /ha snapshot: replica set, leader,
// and per-switch BFD session states.
func TestHAStatusSurface(t *testing.T) {
	c := newHACluster(t)
	awaitLeader(t, c)
	st := c.HAStatus()
	if st.Leader != 0 {
		t.Errorf("leader = %d, want 0", st.Leader)
	}
	if len(st.Replicas) != 3 {
		t.Fatalf("replicas = %d, want 3", len(st.Replicas))
	}
	if !st.Replicas[0].Leader || st.Replicas[1].Leader {
		t.Errorf("leader flags wrong: %+v", st.Replicas)
	}
	for _, r := range st.Replicas {
		if !r.Alive {
			t.Errorf("replica %d not alive", r.ID)
		}
		if r.Seq == 0 {
			t.Errorf("replica %d journal empty (the boot's state never shipped)", r.ID)
		}
	}
	if len(st.BFD) != 5 {
		t.Fatalf("bfd sessions = %d, want 5", len(st.BFD))
	}
	for _, s := range st.BFD {
		if s.State != "up" {
			t.Errorf("switch %d session = %s, want up", s.Switch, s.State)
		}
		if s.DetectUsec <= 0 {
			t.Errorf("switch %d detect time not reported", s.Switch)
		}
	}
}

// TestJournalReplicationAcrossElection: the leader's journal is its
// controller's, and the winner of the election resumes from its own copy:
// it held the leader's last sealed state byte for byte (shipped before the
// leader's operation returned), and the controller it seats runs that state
// under its epoch + 1, itself sealed.
func TestJournalReplicationAcrossElection(t *testing.T) {
	c := newHACluster(t)
	awaitLeader(t, c)
	// Something to carry across: a committed policy update under leader 0.
	policy := portPolicy(100, 4, map[uint64]int{80: 4, 443: -1})
	if err := c.UpdatePolicyConsistent(policy); err != nil {
		t.Fatal(err)
	}
	c.haMu.Lock()
	leader := c.replicas[0].jrnl
	last, lastSeq := leader.Sealed(), leader.Seq()
	held := make([][]byte, len(c.replicas))
	for i, r := range c.replicas {
		held[i] = r.jrnl.Sealed()
	}
	c.haMu.Unlock()
	leaderState, ok, err := core.ReadState(leader)
	if err != nil || !ok || leaderState.PolicyVersion == 0 {
		t.Fatalf("leader journal: ok=%v %v, state %+v", ok, err, leaderState)
	}

	if !c.KillController() {
		t.Fatal("KillController failed")
	}
	lid := awaitLeader(t, c)
	if !bytes.Equal(held[lid], last) {
		t.Fatalf("winner %d did not hold the leader's last sealed state %d when the leader died", lid, lastSeq)
	}
	c.haMu.Lock()
	j := c.replicas[lid].jrnl
	c.haMu.Unlock()
	if j.Seq() <= lastSeq {
		t.Fatalf("winner %d at seq %d: its resume was not sealed past the leader's %d", lid, j.Seq(), lastSeq)
	}
	st, ok, err := core.ReadState(j)
	if err != nil || !ok {
		t.Fatalf("winner's journal: ok=%v %v", ok, err)
	}
	if want := leaderState.Epoch + 1; st.Epoch != want || c.Epoch() != want {
		t.Fatalf("winner journaled epoch %d and runs %d, want %d", st.Epoch, c.Epoch(), want)
	}
	if st.PolicyVersion != leaderState.PolicyVersion || !core.PoliciesEqual(st.Policy, policy) {
		t.Fatalf("winner resumed version %d, want the leader's %d and its policy", st.PolicyVersion, leaderState.PolicyVersion)
	}
}

// TestRevivedReplicaTakesLeaderState: a replica revived while a leader
// holds office is a follower, so the state its journal held when it died
// has no standing, even at the leader's Seq. The dead replica here holds a
// state the new leader never sealed, at the new leader's Seq; once it is
// revived and the new leader dies, the successor (the revived replica, the
// lowest id on a Seq tie) runs the new leader's policy.
func TestRevivedReplicaTakesLeaderState(t *testing.T) {
	cfg := slack(failoverConfig())
	cfg.HA = HAConfig{Replicas: 3, ElectionDelay: 5 * time.Millisecond, Dir: t.TempDir()}
	c := startCluster(t, cfg)
	if lid := awaitLeader(t, c); lid != 0 {
		t.Fatalf("initial leader = %d, want 0", lid)
	}
	if !c.KillController() {
		t.Fatal("KillController failed")
	}
	lid := awaitLeader(t, c)
	c.haMu.Lock()
	leader := c.replicas[lid].jrnl
	c.haMu.Unlock()
	want, ok, err := core.ReadState(leader)
	if err != nil || !ok {
		t.Fatalf("new leader's journal: ok=%v %v", ok, err)
	}

	// The deposed leader's unshipped state: another policy, sealed into the
	// dead replica's journal up to the new leader's Seq.
	unshipped := want
	unshipped.Policy = portPolicy(100, 4, map[uint64]int{80: 4, 443: -1})
	dead, err := journal.Open(filepath.Join(cfg.HA.Dir, "replica-0"))
	if err != nil {
		t.Fatal(err)
	}
	for dead.Seq() < leader.Seq() {
		if err := dead.Seal(unshipped); err != nil {
			t.Fatal(err)
		}
	}
	dead.Close()
	if dead.Seq() != leader.Seq() {
		t.Fatalf("dead replica at seq %d, want the new leader's %d", dead.Seq(), leader.Seq())
	}

	if !c.RestoreController() {
		t.Fatal("RestoreController revived nothing")
	}
	if !c.KillController() {
		t.Fatal("second KillController failed")
	}
	succ := awaitLeader(t, c)
	c.haMu.Lock()
	j := c.replicas[succ].jrnl
	c.haMu.Unlock()
	st, ok, err := core.ReadState(j)
	if err != nil || !ok {
		t.Fatalf("successor %d's journal: ok=%v %v", succ, ok, err)
	}
	if !core.PoliciesEqual(st.Policy, want.Policy) {
		t.Fatalf("successor %d runs %v, want the new leader's policy %v", succ, st.Policy, want.Policy)
	}
}

// churnConfig is the cluster the resume-churn tests run: authorities 3
// and 4, one partition per policy rule, exact caching, and with replicas
// an HA controller set that elects in 5 ms.
func churnConfig(replicas int) ClusterConfig {
	return slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{3, 4},
		Policy:      portPolicy(1, 2, map[uint64]int{80: 1}),
		Strategy:    core.StrategyExact,
		Partition:   core.PartitionConfig{MaxRulesPerPartition: 1},
		HA:          HAConfig{Replicas: replicas, ElectionDelay: 5 * time.Millisecond},
	})
}

// redirectsTo counts the partition rules of every switch but target that
// redirect to it.
func redirectsTo(c *Cluster, target uint32) int {
	n := 0
	for _, id := range c.SwitchIDs() {
		if id == target {
			continue
		}
		for _, r := range c.TableRules(id, proto.TablePartition) {
			if r.Action.Kind == flowspace.ActRedirect && r.Action.Arg == target {
				n++
			}
		}
	}
	return n
}

// killAndPromote kills authority id and returns once the detector has
// declared it dead and no other switch redirects to it.
func killAndPromote(t *testing.T, c *Cluster, id uint32) {
	t.Helper()
	if redirectsTo(c, id) == 0 {
		t.Fatalf("no partition rule redirects to switch %d before the kill", id)
	}
	if !c.KillSwitch(id) {
		t.Fatal("kill failed")
	}
	awaitDead(t, c, id)
	waitMeasure(t, c, fmt.Sprintf("promotion away from switch %d", id), func(*core.Measurements) bool { return redirectsTo(c, id) == 0 })
}

// awaitResume deposes the controller in office and returns once its
// successor holds office: elected with replicas, restored without.
func awaitResume(t *testing.T, c *Cluster, replicas int) {
	t.Helper()
	elections := c.Measurements().LeaderElections
	if !c.KillController() {
		t.Fatal("KillController failed")
	}
	if replicas > 0 {
		waitMeasure(t, c, "the election", func(m *core.Measurements) bool { return m.LeaderElections == elections+1 })
	} else if !c.RestoreController() {
		t.Fatal("RestoreController failed")
	}
}

// TestElectionReconcilesWithoutChurn is the wire counterpart of
// core.TestRecoveryConvergesWithoutChurn: on a converged cluster an
// election's Reconcile installs and withdraws no authority rule, and the
// rules keep their hit counters. The switch that died under the old leader
// stays promoted away from: once the election returns, no partition rule
// redirects to it.
func TestElectionReconcilesWithoutChurn(t *testing.T) {
	c := startCluster(t, churnConfig(3))
	d := Deploy(c)
	for i := uint32(0); i < 20; i++ { // first packets: each hits an authority rule
		h := httpHeader(i + 1)
		h.TPDst = uint16(80 + i%2)
		d.InjectPacket(0, 0, h.Key(), 100, 0)
	}
	d.Run(5)
	killAndPromote(t, c, 4)
	counters := func() map[[2]uint64]uint64 {
		out := map[[2]uint64]uint64{}
		for _, id := range []uint32{3, 4} {
			for _, e := range c.byID(id).sw.Table(proto.TableAuthority).Entries() {
				out[[2]uint64{uint64(id), e.Rule.ID}] = e.Packets
			}
		}
		return out
	}
	before, m0 := counters(), c.Measurements()
	hit := false
	for _, p := range before {
		hit = hit || p > 0
	}
	if !hit {
		t.Fatal("no authority rule counted a packet before the election")
	}

	awaitResume(t, c, 3)
	m := c.Measurements()
	if ins, del := m.PolicyRuleInstalls-m0.PolicyRuleInstalls, m.PolicyRuleDeletes-m0.PolicyRuleDeletes; ins != 0 || del != 0 {
		t.Fatalf("the election's Reconcile installed %d and withdrew %d authority rules on a converged cluster", ins, del)
	}
	if after := counters(); !reflect.DeepEqual(after, before) {
		t.Fatalf("authority rules or their counters changed across the election:\n%v\n%v", before, after)
	}
	if n := redirectsTo(c, 4); n != 0 {
		t.Fatalf("%d partition rules redirect to dead switch 4 after the election", n)
	}
}

// TestResumeAfterFailoverSendsNoFlowMod: with authority 4 killed and
// promoted away from, the successor's commit writes each partition table
// as the promotion left it, with no redirect to the dead switch, so
// neither an election nor a single controller's restore sends a FlowMod.
func TestResumeAfterFailoverSendsNoFlowMod(t *testing.T) {
	for _, replicas := range []int{3, 0} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			tap := &frameTap{seen: map[proto.MsgType]int{}, downstream: true}
			cfg := churnConfig(replicas)
			cfg.pipe = tap.pipe
			c := startCluster(t, cfg)
			killAndPromote(t, c, 4)
			before, _ := tap.counts()
			awaitResume(t, c, replicas)
			after, err := tap.counts()
			if err != nil {
				t.Fatalf("the controller wrote an undecodable frame: %v", err)
			}
			if n := after[proto.MsgFlowMod] - before[proto.MsgFlowMod]; n != 0 {
				t.Fatalf("the successor sent %d FlowMods to a cluster failed over from switch 4", n)
			}
			if n := redirectsTo(c, 4); n != 0 {
				t.Fatalf("%d partition rules redirect to dead switch 4 after the resume", n)
			}
		})
	}
}

// TestResumeOnUnchangedClusterSendsNoFlowMod: a successor resuming a
// cluster that nothing changed, every switch up, finds each table as it
// wants it and writes no FlowMod to any switch, whether an election seats
// it or RestoreController does. A consistent update first stages the
// policy in a band of its own, and two successors in turn resume it: the
// second from the state the first sealed, so a resume that seals the band
// it runs in wrong shows as the second one rewriting every authority rule.
func TestResumeOnUnchangedClusterSendsNoFlowMod(t *testing.T) {
	for _, replicas := range []int{3, 0} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			tap := &frameTap{seen: map[proto.MsgType]int{}, downstream: true}
			cfg := slack(failoverConfig())
			cfg.HA = HAConfig{Replicas: replicas, ElectionDelay: 5 * time.Millisecond}
			cfg.pipe = tap.pipe
			c := startCluster(t, cfg)
			if err := c.UpdatePolicyConsistent(portPolicy(100, 4, map[uint64]int{80: 4, 443: -1})); err != nil {
				t.Fatal(err)
			}
			for i := uint32(0); i < 4; i++ {
				if !c.Inject(i%2, httpHeader(10+i), 100) {
					t.Fatal("inject failed")
				}
				awaitDelivery(t, c)
			}
			before, _ := tap.counts()
			awaitResume(t, c, replicas)
			awaitResume(t, c, replicas)
			after, err := tap.counts()
			if err != nil {
				t.Fatalf("the controller wrote an undecodable frame: %v", err)
			}
			if after[proto.MsgBarrierReq] == before[proto.MsgBarrierReq] {
				t.Fatal("the successors' barriers never crossed a tapped pipe")
			}
			if n := after[proto.MsgFlowMod] - before[proto.MsgFlowMod]; n != 0 {
				t.Fatalf("two successors sent %d FlowMods to an unchanged cluster", n)
			}
		})
	}
}

// TestPartitionCountersSurviveResume: the successor's commit finds every
// partition rule a switch holds as it wants it, so the data plane's adopt
// leaves them in place and their hit counters carry on, whether an
// election seats the successor or RestoreController does.
func TestPartitionCountersSurviveResume(t *testing.T) {
	for _, replicas := range []int{3, 0} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			cfg := slack(failoverConfig())
			cfg.HA = HAConfig{Replicas: replicas, ElectionDelay: 5 * time.Millisecond}
			c := startCluster(t, cfg)
			for i := uint32(0); i < 4; i++ {
				if !c.Inject(0, httpHeader(10+i), 100) {
					t.Fatal("inject failed")
				}
				awaitDelivery(t, c)
			}
			hits := func() (n uint64) {
				for _, e := range c.byID(0).sw.Table(proto.TablePartition).Entries() {
					n += e.Packets
				}
				return n
			}
			before := hits()
			if before == 0 {
				t.Fatal("no packet hit ingress 0's partition rules")
			}
			awaitResume(t, c, replicas)
			if after := hits(); after != before {
				t.Fatalf("ingress 0's partition rules counted %d packets before the successor's commit, %d after", before, after)
			}
		})
	}
}

// TestHADirResumesEpoch: a cluster booted on the journal directory of one
// that ran before resumes from it, so its epoch is past every epoch the
// first cluster reached.
func TestHADirResumesEpoch(t *testing.T) {
	cfg := slack(failoverConfig())
	cfg.HA = HAConfig{Replicas: 3, ElectionDelay: 5 * time.Millisecond, Dir: t.TempDir()}
	first := startCluster(t, cfg)
	awaitLeader(t, first)
	if !first.KillController() {
		t.Fatal("KillController failed")
	}
	awaitLeader(t, first)
	reached := first.Epoch()
	if reached < 2 {
		t.Fatalf("epoch %d after an election", reached)
	}
	first.Close()

	second := startCluster(t, cfg)
	if e := second.Epoch(); e <= reached {
		t.Fatalf("second cluster on the same Dir runs epoch %d, want > %d", e, reached)
	}
	if !second.Inject(0, httpHeader(1), 100) {
		t.Fatal("inject failed")
	}
	if d := awaitDelivery(t, second); d.Egress != 4 {
		t.Fatalf("delivery on the resumed cluster: %+v", d)
	}
}

// BenchmarkElect prices an election on a 1k-rule policy after a number of
// commits: from KillController to the successor in office (ElectionDelay
// 1 ms included), the dead replica revived between elections. A journal
// holds the last state only, so commits=100 elects as fast as commits=1.
// Each commit is an update to the running policy, which seals the full
// state and ships it to both followers.
func BenchmarkElect(b *testing.B) {
	switches := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: 1024, MaxDepth: 4, PortRangeFrac: 0.1, DropFrac: 0.1,
		Egresses: switches, Seed: 1,
	})
	for _, commits := range []int{1, 100} {
		b.Run(fmt.Sprintf("commits=%d", commits), func(b *testing.B) {
			c := startCluster(b, slack(ClusterConfig{
				Switches:    switches,
				Authorities: []uint32{2, 6},
				Policy:      policy,
				Strategy:    core.StrategyCover,
				HA:          HAConfig{Replicas: 3, ElectionDelay: time.Millisecond},
			}))
			for range commits {
				if err := c.UpdatePolicyConsistent(policy); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for range b.N {
				if !c.KillController() {
					b.Fatal("KillController failed")
				}
				awaitLeader(b, c)
				b.StopTimer()
				c.RestoreController()
				b.StartTimer()
			}
		})
	}
}
