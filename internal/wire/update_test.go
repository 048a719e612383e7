package wire

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/journal"
	"difane/internal/oracle"
	"difane/internal/packet"
	"difane/internal/proto"
)

// portPolicy builds a policy over destination ports: each rule sends one
// port to an egress (or drops it, egress < 0), and a default rule sends
// the rest to dflt.
func portPolicy(firstID uint64, dflt uint32, ports map[uint64]int) []flowspace.Rule {
	rules := []flowspace.Rule{{ID: firstID, Priority: 0, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: dflt}}}
	for port, egress := range ports {
		r := flowspace.Rule{ID: firstID + port, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, port),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(egress)}}
		if egress < 0 {
			r.Action = flowspace.Action{Kind: flowspace.ActDrop}
		}
		rules = append(rules, r)
	}
	return rules
}

// phaseGate pauses c's control operations before each of their phases:
// wait returns once one is paused (the phases before it done), and release
// lets it run.
func phaseGate(c *Cluster) (wait, release func()) {
	at, run := make(chan struct{}), make(chan struct{})
	c.sb.Load().hold = func() {
		at <- struct{}{}
		<-run
	}
	return func() { <-at }, func() { run <- struct{}{} }
}

// dropAll is a one-rule policy that drops every packet.
func dropAll(priority int32) []flowspace.Rule {
	return []flowspace.Rule{{ID: 100, Priority: priority, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActDrop}}}
}

// updateCluster boots a one-authority cluster whose one rule, at priority
// 5, forwards everything to switch 3, for a policy update to replace.
func updateCluster(t *testing.T) (*Cluster, *Deployment) {
	t.Helper()
	c := startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3},
		Authorities: []uint32{1},
		Policy: []flowspace.Rule{{ID: 1, Priority: 5, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 3}}},
		Strategy: core.StrategyExact,
	}))
	return c, Deploy(c)
}

// A redirected miss is answered from the authority table's band of the
// generation its ingress runs: between the install and the commit the
// staged rule answers nothing, however high its priority, and after the
// commit the rule it replaces answers nothing, though both are in the
// table until the cleanup.
func TestConsistentUpdateAnswersFromOwnGeneration(t *testing.T) {
	c, d := updateCluster(t)
	deny := dropAll(100) // would beat the running rule in a shared lookup
	wait, release := phaseGate(c)
	done := make(chan error, 1)
	go func() { done <- c.UpdatePolicyConsistent(deny) }()
	wait()
	release()
	wait() // installed; the commit waits
	if got := c.CacheLen(0); got != 0 {
		t.Fatalf("ingress cache holds %d entries before any packet", got)
	}
	d.InjectPacket(0, 0, httpHeader(1).Key(), 100, 0)
	d.Run(5)
	if m := c.Measurements(); m.Delivered != 1 || m.Drops.Policy != 0 {
		t.Fatalf("a miss before the commit must follow the old policy: delivered %d, drops %+v", m.Delivered, m.Drops)
	}
	release()
	wait() // committed; the cleanup waits
	d.InjectPacket(0, 0, httpHeader(2).Key(), 100, 0)
	d.Run(5)
	if m := c.Measurements(); m.Delivered != 1 || m.Drops.Policy != 1 || m.Drops.Lost() != 0 {
		t.Fatalf("a miss after the commit must follow the new policy: delivered %d, drops %+v", m.Delivered, m.Drops)
	}
	entries := c.byID(1).sw.Table(proto.TableAuthority).Entries()
	for _, e := range entries {
		if e.Packets != 1 {
			t.Fatalf("authority entry %#x matched %d packets, want 1 (of %d entries)", e.Rule.ID, e.Packets, len(entries))
		}
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := len(c.TableRules(1, proto.TableAuthority)); got != len(deny) {
		t.Fatalf("after the cleanup the authority holds %d rules, want the %d new ones", got, len(deny))
	}
}

// A packet that enters at the authority switch is answered by the switch's
// own pass over its authority table, which must keep to the running
// generation's band as well.
func TestConsistentUpdateAtAuthorityIngress(t *testing.T) {
	for _, tc := range []struct {
		name      string
		priority  int32 // of the staged drop rule
		done      int   // phases run before the packet
		delivered uint64
	}{
		{"staged rule answers nothing before the commit", 100, 1, 1},
		{"replaced rule answers nothing after the commit", 1, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, d := updateCluster(t)
			deny := dropAll(tc.priority)
			wait, release := phaseGate(c)
			done := make(chan error, 1)
			go func() { done <- c.UpdatePolicyConsistent(deny) }()
			wait()
			for range tc.done {
				release()
				wait()
			}
			d.InjectPacket(0, 1, httpHeader(1).Key(), 100, 0) // ingress 1 is the authority
			d.Run(5)
			if got := c.byID(1).sw.Table(proto.TableAuthority).Len(); got != 1+len(deny) {
				t.Fatalf("authority table holds %d rules, want both generations", got)
			}
			m := c.Measurements()
			if m.Redirects != 0 {
				t.Fatalf("%d redirects: the packet was to be answered where it entered", m.Redirects)
			}
			if m.Delivered != tc.delivered || m.Drops.Policy != 1-tc.delivered {
				t.Fatalf("delivered=%d drops %+v, want %d delivered", m.Delivered, m.Drops, tc.delivered)
			}
			for release(); tc.done < 2; tc.done++ {
				wait()
				release()
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Traffic runs without a pause across a live update that moves the policy,
// the partitions and their authority switches: every packet gets the old
// or the new policy's verdict, no ingress returns to the old policy once it
// has given a packet the new one's, nothing is lost, and the authority
// tables end up holding the new generation alone.
func TestConsistentUpdateUnderTraffic(t *testing.T) {
	oldPol := portPolicy(1, 3, map[uint64]int{80: 4, 22: -1, 443: 5, 25: 4})
	newPol := portPolicy(100, 4, map[uint64]int{80: 5, 443: -1, 22: 3, 8080: 3})
	c := startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4, 5},
		Authorities: []uint32{1, 2, 5},
		Policy:      oldPol,
		Strategy:    core.StrategyCover,
		QueueDepth:  1 << 14,
		Partition:   core.PartitionConfig{MaxRulesPerPartition: 2},
	}))
	before := c.Assignment()

	// Two ingresses, one of them an authority switch, each sending its own
	// numbered packets: the number is in the source address, and the ports
	// cycle so that cached covers and misses mix. Every delivery fits in
	// the notification channel.
	ingresses := []uint32{0, 2}
	ports := []uint16{80, 22, 443, 25, 8080, 9}
	var stop atomic.Bool
	var wg sync.WaitGroup
	sent := make([][]packet.Header, len(ingresses))
	for i, in := range ingresses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint32(0); (!stop.Load() || seq < 600) && seq < 6000; seq++ {
				h := httpHeader(in<<24 | seq)
				h.TPDst = ports[seq%uint32(len(ports))]
				for !c.tryInject(in, h, 100, 0) {
					time.Sleep(50 * time.Microsecond)
				}
				sent[i] = append(sent[i], h)
				time.Sleep(20 * time.Microsecond)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.UpdatePolicyConsistent(newPol); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	total := 0
	for _, s := range sent {
		total += len(s)
	}
	if !c.awaitQuiescence(uint64(total), 10*time.Second) {
		t.Fatalf("%d packets did not reach a verdict", total)
	}
	delivered := map[uint32]uint32{} // source address → egress
	for len(c.Deliveries) > 0 {
		dl := <-c.Deliveries
		delivered[dl.Header.IPSrc] = dl.Egress
	}

	if after := c.Assignment(); len(after.Partitions) == len(before.Partitions) {
		t.Fatalf("the update kept %d partitions; it is to move them", len(after.Partitions))
	}
	verdict := func(policy []flowspace.Rule, h packet.Header) int {
		if v := oracle.Evaluate(policy, h.Key()); v.Kind == oracle.Deliver {
			return int(v.Egress)
		}
		return -1
	}
	moved := 0
	for i, s := range sent {
		sawNew := -1
		for seq, h := range s {
			got := -1
			if e, ok := delivered[h.IPSrc]; ok {
				got = int(e)
			}
			o, n := verdict(oldPol, h), verdict(newPol, h)
			switch {
			case got != o && got != n:
				t.Fatalf("ingress %d packet %d (port %d): verdict %d, want old %d or new %d",
					ingresses[i], seq, h.TPDst, got, o, n)
			case o == n:
			case got == n:
				if sawNew < 0 {
					sawNew = seq
				}
			case sawNew >= 0:
				t.Fatalf("ingress %d packet %d got the old policy's verdict after packet %d got the new one's",
					ingresses[i], seq, sawNew)
			}
		}
		if sawNew > 0 {
			moved++
		}
	}
	if moved != len(ingresses) {
		t.Fatalf("%d of %d ingresses moved from the old policy to the new under traffic", moved, len(ingresses))
	}
	m := c.Measurements()
	if m.Drops.Lost() != 0 || m.Delivered+m.Drops.Policy != uint64(total) {
		t.Fatalf("%d packets: delivered %d, drops %+v", total, m.Delivered, m.Drops)
	}
	gen := c.Assignment().Partitions[0].Rules[0].ID & core.GenerationMask
	if gen == 0 {
		t.Fatal("the update staged no generation")
	}
	for _, id := range c.SwitchIDs() {
		for _, r := range c.TableRules(id, proto.TableAuthority) {
			if r.ID&core.GenerationMask != gen || core.AuthorityEntryRuleID(r.ID)&0xFFFFFFFF < 100 {
				t.Fatalf("switch %d still holds %v, not of the new generation %#x", id, r, gen)
			}
		}
	}
}

// Each live update opens one convergence timeline, on which every FlowMod
// the controller sent for it is counted once: the staged generation's
// authority entries as installs, the old one's as withdrawals.
func TestUpdateTimelineCountsTheControllersFlowMods(t *testing.T) {
	c, d := updateCluster(t)
	authority := func() int { return len(c.TableRules(1, proto.TableAuthority)) }
	withdrawn := authority()
	m0 := c.Measurements()
	var installs, withdrawals int
	for i, policy := range [][]flowspace.Rule{
		portPolicy(100, 3, map[uint64]int{80: -1, 22: 2}),
		portPolicy(200, 2, map[uint64]int{443: 3}),
	} {
		if err := c.UpdatePolicyConsistent(policy); err != nil {
			t.Fatal(err)
		}
		d.Run(1)
		installed := authority()
		tl := c.Convergence().Timelines()
		if len(tl) != i+1 {
			t.Fatalf("%d timelines after %d updates", len(tl), i+1)
		}
		if got := tl[i]; got.Installs != uint64(installed) || got.Withdraws != uint64(withdrawn) || !got.Converged {
			t.Fatalf("update %d: timeline %+v, want %d installs and %d withdrawals, converged",
				i, got, installed, withdrawn)
		}
		installs, withdrawals = installs+installed, withdrawals+withdrawn
		withdrawn = installed
	}
	m := c.Measurements()
	if ins, del := m.PolicyRuleInstalls-m0.PolicyRuleInstalls, m.PolicyRuleDeletes-m0.PolicyRuleDeletes; ins != uint64(installs) || del != uint64(withdrawals) {
		t.Fatalf("policy-churn counters moved by %d installs and %d deletes, want %d and %d", ins, del, installs, withdrawals)
	}
}

// ruleTables snapshots every switch's authority and partition tables.
func ruleTables(c *Cluster) map[uint32][2][]flowspace.Rule {
	out := map[uint32][2][]flowspace.Rule{}
	for _, id := range c.SwitchIDs() {
		out[id] = [2][]flowspace.Rule{c.TableRules(id, proto.TableAuthority), c.TableRules(id, proto.TablePartition)}
	}
	return out
}

// deposedUpdate is what killMidUpdate observed of a live update whose
// leader it killed.
type deposedUpdate struct {
	c         *Cluster
	oldAssign core.Assignment
	before    int // the policy version the update started from
	// shipped is the most caught-up follower's state at the kill: what the
	// successor resumes from.
	shipped core.ControllerState
	err     error // the deposed update's result
}

// killMidUpdate boots a one-authority cluster of three controller replicas
// on oldPol, streams numbered packets into switch 0, starts a live update
// to newPol and kills the leader once phases of its phases are done. It
// fails t unless the deposed update returns within 100 ms of its release,
// before the successor is elected, with every table as the kill left it
// (no FlowMod accepted under the deposed epoch), and unless, once the
// election is over, every packet reached its verdict with none lost.
func killMidUpdate(t *testing.T, oldPol, newPol []flowspace.Rule, phases int) deposedUpdate {
	c := startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3},
		Authorities: []uint32{1},
		Policy:      oldPol,
		Strategy:    core.StrategyExact,
		QueueDepth:  1 << 14,
		// Long enough that the deposed update returns first.
		HA: HAConfig{Replicas: 3, ElectionDelay: 300 * time.Millisecond},
	}))
	d := deposedUpdate{c: c, oldAssign: c.Assignment(), before: c.sb.Load().ctl.PolicyVersion}
	var stop atomic.Bool
	var sent atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for src := uint32(1); !stop.Load(); src++ {
			for !c.tryInject(0, httpHeader(src), 100, 0) {
				time.Sleep(50 * time.Microsecond)
			}
			sent.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()

	wait, release := phaseGate(c)
	done := make(chan error, 1)
	go func() { done <- c.UpdatePolicyConsistent(newPol) }()
	wait()
	for range phases {
		release()
		wait()
	}
	// Kill at the boundary itself: once what the phases before it sent is
	// applied (the barriers the next phase starts with), so that whatever
	// changes a table after the kill was sent after it.
	s := c.sb.Load()
	for _, id := range c.SwitchIDs() {
		if err := s.Barrier(id); err != nil {
			t.Fatal(err)
		}
	}
	if !c.KillController() {
		t.Fatal("KillController failed")
	}
	atKill := ruleTables(c)
	c.haMu.Lock()
	var best *journal.Journal
	for _, r := range c.replicas {
		if r.alive && (best == nil || r.jrnl.Seq() > best.Seq()) {
			best = r.jrnl
		}
	}
	c.haMu.Unlock()
	var err error
	if d.shipped, _, err = core.ReadState(best); err != nil {
		t.Fatal(err)
	}
	release()
	select {
	case d.err = <-done:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("the deposed update is still running")
	}
	if lid := c.Leader(); lid >= 0 {
		t.Fatalf("replica %d was seated before the deposed update returned", lid)
	}
	if got := ruleTables(c); !reflect.DeepEqual(got, atKill) {
		t.Fatalf("the deposed controller changed the tables after its kill:\n%v\n%v", atKill, got)
	}

	waitMeasure(t, c, "the election", func(m *core.Measurements) bool { return m.LeaderElections == 1 })
	stop.Store(true)
	wg.Wait()
	if !c.awaitQuiescence(sent.Load(), 10*time.Second) {
		t.Fatalf("%d packets did not reach a verdict", sent.Load())
	}
	if m := c.Measurements(); m.Drops.Lost() != 0 || m.Delivered != sent.Load() {
		t.Fatalf("%d packets: delivered %d, drops %+v", sent.Load(), m.Delivered, m.Drops)
	}
	return d
}

// A controller deposed in the middle of a live update sends nothing after
// its kill: the call returns as soon as it is released, before the
// successor is elected, and every table is as the kill left it. The
// successor runs what the journal it resumes from holds. Killed before the
// commit, that is the old policy: the call fails, and the successor's
// Reconcile withdraws the staged generation. Killed after it, the commit
// was shipped to the followers before the next phase could start: the call
// succeeds, and Reconcile collects the old generation. Traffic streams
// throughout, and none of it is lost.
func TestDeposedUpdateIsFenced(t *testing.T) {
	oldPol := []flowspace.Rule{{ID: 1, Priority: 5, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 3}}}
	newPol := []flowspace.Rule{{ID: 100, Priority: 5, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 2}}}
	for _, tc := range []struct {
		name      string
		phases    int // the update's phases done at the kill
		committed bool
	}{
		{"killed before the commit", 1, false},
		{"killed before the cleanup", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := killMidUpdate(t, oldPol, newPol, tc.phases)
			c := d.c
			if (d.err == nil) != tc.committed {
				t.Fatalf("the deposed update returned %v; committed %v", d.err, tc.committed)
			}
			want, egress := oldPol, uint32(3)
			if tc.committed {
				want, egress = newPol, 2
			}
			run := c.run.Load()
			if !core.PoliciesEqual(run.Policy, want) || (!tc.committed && !reflect.DeepEqual(run.Assignment, d.oldAssign)) {
				t.Fatalf("the successor runs %v, want %v", run.Policy, want)
			}
			for _, id := range c.SwitchIDs() {
				for _, r := range c.TableRules(id, proto.TableAuthority) {
					if r.ID&core.GenerationMask != run.Generation {
						t.Fatalf("switch %d holds %#x beside the running generation %#x", id, r.ID, run.Generation)
					}
				}
			}
			if got := len(c.TableRules(1, proto.TableAuthority)); got != len(want) {
				t.Fatalf("the authority holds %d rules, want %d", got, len(want))
			}
			for len(c.Deliveries) > 0 {
				<-c.Deliveries
			}
			dep := Deploy(c)
			const probes = 10
			for i := uint32(0); i < probes; i++ {
				dep.InjectPacket(0, 0, httpHeader(1<<24+i).Key(), 100, 0)
			}
			dep.Run(5)
			for i := 0; i < probes; i++ {
				if dl := awaitDelivery(t, c); dl.Egress != egress {
					t.Fatalf("after the election a packet left at %d, want %d", dl.Egress, egress)
				}
			}
		})
	}
}

// TestLeaderKillAtEveryPhaseBoundary kills the leader of one live update at
// each boundary between its phases (k phases done: before the install, the
// commit and the cleanup), each in a run of its own, under traffic. At
// every boundary the outcome is the state the followers were shipped: the
// call returns nil exactly when that state holds the commit, the successor
// runs its policy under its epoch + 1, no FlowMod is accepted under the
// deposed epoch, and no packet is lost (killMidUpdate).
func TestLeaderKillAtEveryPhaseBoundary(t *testing.T) {
	oldPol := portPolicy(1, 3, map[uint64]int{80: 2, 22: -1})
	newPol := portPolicy(100, 2, map[uint64]int{80: 3, 443: 3})
	for k := range 3 {
		t.Run(fmt.Sprintf("phases=%d", k), func(t *testing.T) {
			d := killMidUpdate(t, oldPol, newPol, k)
			c := d.c
			// The commit is shipped before the cleanup phase starts.
			committed := d.shipped.PolicyVersion > d.before
			if committed != (k == 2) || core.PoliciesEqual(d.shipped.Policy, newPol) != committed {
				t.Fatalf("%d phases done: the shipped state holds version %d (%d before the update)", k, d.shipped.PolicyVersion, d.before)
			}
			if (d.err == nil) != committed {
				t.Fatalf("the deposed update returned %v; its commit shipped %v", d.err, committed)
			}
			if c.Epoch() != d.shipped.Epoch+1 {
				t.Fatalf("the successor runs epoch %d, want the shipped state's %d + 1", c.Epoch(), d.shipped.Epoch)
			}
			if run := c.run.Load(); !core.PoliciesEqual(run.Policy, d.shipped.Policy) {
				t.Fatalf("the successor runs %v, want the shipped state's %v", run.Policy, d.shipped.Policy)
			}
		})
	}
}
