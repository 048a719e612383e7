package core

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/journal"
	"difane/internal/proto"
	"difane/internal/testutil"
	"difane/internal/workload"
)

// recoveredPolicy is a second policy distinct from testNet's, so recovery
// tests exercise a journal holding a post-update state.
func recoveredPolicy() []flowspace.Rule {
	return []flowspace.Rule{
		{ID: 3, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 443),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}},
		{ID: 4, Priority: 0, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActDrop}},
	}
}

// partitionEntries maps each switch's partition rules to their packet
// counters.
func partitionEntries(n *Network) map[uint32]map[flowspace.Rule]uint64 {
	out := map[uint32]map[flowspace.Rule]uint64{}
	for id, sw := range n.Switches {
		out[id] = map[flowspace.Rule]uint64{}
		for _, e := range sw.Table(proto.TablePartition).Entries() {
			out[id][e.Rule] = e.Packets
		}
	}
	return out
}

// counted reports whether some partition entry has counted a packet.
func counted(entries map[uint32]map[flowspace.Rule]uint64) bool {
	for _, tb := range entries {
		for _, p := range tb {
			if p > 0 {
				return true
			}
		}
	}
	return false
}

// authorityRuleIDs collects the authority-table rule IDs of one switch.
func authorityRuleIDs(n *Network, sw uint32) map[uint64]bool {
	out := map[uint64]bool{}
	for _, r := range n.Switches[sw].Table(proto.TableAuthority).Rules() {
		out[r.ID] = true
	}
	return out
}

func TestRecoveryConvergesWithoutChurn(t *testing.T) {
	// The sim is single-threaded, but journaling opens files and the
	// engine may hold stations; guard the whole recovery path against
	// accidentally spawned goroutines.
	defer testutil.CheckGoroutineLeaks(t, 2)()
	dir := t.TempDir()
	n := testNet(t, NetworkConfig{})
	c1, _, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.PolicyPushDelay = 0.05
	_, cleanupAt, err := c1.UpdatePolicyConsistent(recoveredPolicy())
	if err != nil {
		t.Fatal(err)
	}
	n.Run(cleanupAt + 0.01)
	// Populate an ingress cache so we can see it survive recovery.
	n.InjectPacket(n.Eng.Now()+0.001, 0, flowKey(9, 443), 100, 0)
	n.Run(n.Eng.Now() + 0.1)
	if n.CacheEntries() == 0 {
		t.Fatal("expected a populated ingress cache before the crash")
	}
	caches := n.CacheEntries()
	authBefore, partBefore := authorityRuleIDs(n, 2), partitionEntries(n)
	if !counted(partBefore) {
		t.Fatal("no partition rule counted the redirected packet")
	}
	wantEpoch, wantVer, wantGen := c1.Epoch, c1.PolicyVersion, c1.gen
	wantAssign := n.Assignment()
	installs, deletes := n.M.PolicyRuleInstalls, n.M.PolicyRuleDeletes

	// Crash: the controller object is dropped without any shutdown step.
	c2, rep, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HadState {
		t.Fatal("journal held state; recovery saw none")
	}
	if rep.Installed != 0 || rep.Deleted != 0 {
		t.Fatalf("clean restart must not churn rules: %+v", rep)
	}
	if c2.Epoch != wantEpoch+1 {
		t.Fatalf("epoch = %d, want %d (must fence out the dead controller)", c2.Epoch, wantEpoch+1)
	}
	if c2.PolicyVersion != wantVer || c2.gen != wantGen {
		t.Fatalf("version/gen = %d/%d, want %d/%d", c2.PolicyVersion, c2.gen, wantVer, wantGen)
	}
	if !reflect.DeepEqual(n.Assignment(), wantAssign) {
		t.Fatal("recovered assignment differs from the pre-crash one")
	}
	if n.CacheEntries() != caches {
		t.Fatalf("ingress caches must survive recovery: %d then %d", caches, n.CacheEntries())
	}
	if got := authorityRuleIDs(n, 2); !reflect.DeepEqual(got, authBefore) {
		t.Fatalf("authority rules changed across recovery: %v vs %v", got, authBefore)
	}
	if got := partitionEntries(n); !reflect.DeepEqual(got, partBefore) {
		t.Fatalf("partition rules or their counters changed across recovery:\n%v\n%v", partBefore, got)
	}
	if n.M.PolicyRuleInstalls != installs || n.M.PolicyRuleDeletes != deletes {
		t.Fatalf("churn counters moved on a clean recovery: %d/%d then %d/%d",
			installs, deletes, n.M.PolicyRuleInstalls, n.M.PolicyRuleDeletes)
	}
	// A second restart, from the state the first one sealed, finds the
	// switches as that state wants them too: the resume sealed the band
	// the update staged, not an unstaged rebuild of it.
	c2.Journal().Close()
	c3, rep, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Journal().Close()
	if rep != (RecoveryReport{HadState: true}) {
		t.Fatalf("second clean restart must not churn rules: %+v", rep)
	}
	if got := authorityRuleIDs(n, 2); !reflect.DeepEqual(got, authBefore) {
		t.Fatalf("authority rules changed across the second recovery: %v vs %v", got, authBefore)
	}
	if n.M.PolicyRuleInstalls != installs || n.M.PolicyRuleDeletes != deletes {
		t.Fatalf("churn counters moved on the second recovery: %d/%d then %d/%d",
			installs, deletes, n.M.PolicyRuleInstalls, n.M.PolicyRuleDeletes)
	}
	// And the recovered controller still works: new flows set up fine.
	before := n.M.Delivered
	n.InjectPacket(n.Eng.Now()+0.001, 1, flowKey(77, 443), 100, 0)
	n.Run(n.Eng.Now() + 0.1)
	if n.M.Delivered != before+1 {
		t.Fatalf("post-recovery flow not delivered (drops %+v)", n.M.Drops)
	}
}

func TestRecoveryRepairsDivergedSwitch(t *testing.T) {
	dir := t.TempDir()
	n := testNet(t, NetworkConfig{})
	c1, _, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := authorityRuleIDs(n, 2)
	// Diverge the authority switch behind the controller's back: drop one
	// real rule, add one rule the controller never installed.
	tb := n.Switches[2].Table(proto.TableAuthority)
	var victim uint64
	for id := range want {
		if victim == 0 || id < victim {
			victim = id
		}
	}
	tb.Delete(victim)
	bogus := flowspace.Rule{ID: 999, Priority: 5, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActDrop}}
	if err := tb.Insert(0, bogus, 0, 0); err != nil {
		t.Fatal(err)
	}
	_ = c1 // crashes here

	c2, rep, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Journal().Close()
	if rep.Installed != 1 || rep.Deleted != 1 {
		t.Fatalf("repair = %+v, want 1 installed / 1 deleted", rep)
	}
	if got := authorityRuleIDs(n, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("authority table not repaired: %v, want %v", got, want)
	}
}

// TestRecoveryWithdrawsStrayPartitionRule: a partition entry the
// controller never installed is withdrawn by recovery, and the report,
// which counts authority rules alone, reads nothing.
func TestRecoveryWithdrawsStrayPartitionRule(t *testing.T) {
	dir := t.TempDir()
	n := testNet(t, NetworkConfig{})
	if _, _, err := NewControllerFromJournal(n, dir); err != nil {
		t.Fatal(err)
	}
	want := partitionEntries(n)
	stray := flowspace.Rule{ID: PartitionIDBase + 100, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActRedirect, Arg: 3}}
	if err := n.Switches[0].Table(proto.TablePartition).Insert(0, stray, 0, 0); err != nil {
		t.Fatal(err)
	}

	c, rep, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Journal().Close()
	if rep != (RecoveryReport{HadState: true}) {
		t.Fatalf("report = %+v, want no authority rule installed or deleted", rep)
	}
	if got := partitionEntries(n); !reflect.DeepEqual(got, want) {
		t.Fatalf("stray partition rule survived recovery:\n%v\nwant %v", got, want)
	}
}

func TestRecoveryFromEmptyJournal(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	c, rep, err := NewControllerFromJournal(n, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Journal().Close()
	if rep.HadState {
		t.Fatal("fresh directory cannot hold state")
	}
	if c.Epoch != 1 {
		t.Fatalf("fresh epoch = %d, want 1", c.Epoch)
	}
}

func TestEpochMonotonicAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	n := testNet(t, NetworkConfig{})
	c, _, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	epochs := []uint64{c.Epoch}
	for i := 0; i < 3; i++ {
		next, _, err := NewControllerFromJournal(n, dir)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, next.Epoch)
		c = next
	}
	c.Journal().Close()
	for i := 1; i < len(epochs); i++ {
		if epochs[i] != epochs[i-1]+1 {
			t.Fatalf("epochs not strictly increasing: %v", epochs)
		}
	}
	// The journal holds the last restart's epoch.
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st, ok, err := ReadState(j)
	if err != nil || !ok {
		t.Fatalf("ReadState: ok=%v err=%v", ok, err)
	}
	if st.Epoch != epochs[len(epochs)-1] {
		t.Fatalf("durable epoch = %d, want %d", st.Epoch, epochs[len(epochs)-1])
	}
}

// TestCheckpointThenRecover: attaching a journal to a running controller
// seals its current state at once, and a commit after that replaces it;
// recovery resumes the later state.
func TestCheckpointThenRecover(t *testing.T) {
	dir := t.TempDir()
	n := testNet(t, NetworkConfig{})
	c1 := NewController(n)
	c1.PolicyPushDelay = 0.05
	_, cleanupAt, err := c1.UpdatePolicyConsistent(recoveredPolicy())
	if err != nil {
		t.Fatal(err)
	}
	n.Run(cleanupAt + 0.01)
	if err := c1.AttachJournal(dir); err != nil {
		t.Fatal(err)
	}
	if err := c1.AttachJournal(t.TempDir()); err == nil {
		t.Fatal("a second journal was attached")
	}
	st, ok, err := ReadState(c1.Journal())
	if err != nil || !ok || st.PolicyVersion != c1.PolicyVersion || st.Epoch != c1.Epoch {
		t.Fatalf("attach sealed version %d at epoch %d (ok=%v, %v), want the running %d at %d",
			st.PolicyVersion, st.Epoch, ok, err, c1.PolicyVersion, c1.Epoch)
	}
	// One more committed change after the attach replaces the sealed state.
	at, err := c1.UpdatePolicy(testNetPolicy())
	if err != nil {
		t.Fatal(err)
	}
	n.Run(at + 0.01)
	if c1.JournalErr != nil {
		t.Fatal(c1.JournalErr)
	}
	wantVer := c1.PolicyVersion
	c1.Journal().Close()

	c2, rep, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Journal().Close()
	if !rep.HadState {
		t.Fatal("recovery saw no state")
	}
	if c2.PolicyVersion != wantVer {
		t.Fatalf("version = %d, want %d (commit after the attach lost)", c2.PolicyVersion, wantVer)
	}
	if !PoliciesEqual(n.Policy(), testNetPolicy()) {
		t.Fatal("recovered policy is not the post-attach one")
	}
}

// TestJournalHoldsStateNotHistory: a journal keeps the controller's last
// state, not one record per commit. After 100 commits its directory holds
// one file, about one encoded state long, and recovery resumes the 100th.
func TestJournalHoldsStateNotHistory(t *testing.T) {
	dir := t.TempDir()
	n := testNet(t, NetworkConfig{})
	c1, _, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.PolicyPushDelay = 0.05
	policies := [][]flowspace.Rule{recoveredPolicy(), testNetPolicy()}
	start := c1.PolicyVersion
	for i := 0; i < 100; i++ {
		_, cleanupAt, err := c1.UpdatePolicyConsistent(policies[i%2])
		if err != nil {
			t.Fatal(err)
		}
		n.Run(cleanupAt + 0.01)
	}
	if c1.JournalErr != nil {
		t.Fatal(c1.JournalErr)
	}
	if c1.PolicyVersion != start+100 {
		t.Fatalf("%d commits, want 100", c1.PolicyVersion-start)
	}
	want := c1.State()
	encoded, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "state.json" {
		t.Fatalf("journal directory holds %v, want state.json alone", ents)
	}
	info, err := ents[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(float64(len(encoded)) * 1.1); info.Size() > limit {
		t.Fatalf("state.json is %d bytes after 100 commits; one state is %d (limit %d)", info.Size(), len(encoded), limit)
	}

	c2, rep, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Journal().Close()
	if !rep.HadState || c2.PolicyVersion != want.PolicyVersion || c2.Epoch != want.Epoch+1 {
		t.Fatalf("recovered version %d at epoch %d (had state %v), want the 100th commit's %d at %d",
			c2.PolicyVersion, c2.Epoch, rep.HadState, want.PolicyVersion, want.Epoch+1)
	}
	if !PoliciesEqual(n.Policy(), policies[1]) {
		t.Fatal("recovered policy is not the 100th commit's")
	}
}

// testNetPolicy mirrors the policy testNet installs, for round-trip checks.
func testNetPolicy() []flowspace.Rule {
	return []flowspace.Rule{
		{ID: 1, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}},
		{ID: 2, Priority: 0, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActDrop}},
	}
}

// TestReadStateRefusesWhatItCannotRebuild: ReadState rebuilds the
// partitions a state does not seal, and a state whose rebuild does not
// match what it sealed is refused, as is one in the format that sealed the
// partitions themselves (it carries no digest): recovery from it fails
// instead of resuming a controller on it.
func TestReadStateRefusesWhatItCannotRebuild(t *testing.T) {
	n := testNet(t, NetworkConfig{Partition: PartitionConfig{MaxRulesPerPartition: 1}})
	sealed := NewController(n).State()
	if len(sealed.Assignment.Partitions) < 2 {
		t.Fatalf("want a policy cut into several partitions, got %d", len(sealed.Assignment.Partitions))
	}
	edit := func(change func(*ControllerState)) ControllerState {
		st := sealed
		change(&st)
		return st
	}
	type oldAssignment struct {
		Partitions      []Partition
		Primary, Backup []uint32
		Replicas        [][]uint32
	}
	old := struct {
		Epoch         uint64           `json:"epoch"`
		PolicyVersion int              `json:"policy_version"`
		Generation    uint64           `json:"generation"`
		PinRouting    bool             `json:"pin_routing,omitempty"`
		Policy        []flowspace.Rule `json:"policy"`
		Assignment    oldAssignment    `json:"assignment"`
	}{sealed.Epoch, sealed.PolicyVersion, sealed.Generation, sealed.PinRouting, sealed.Policy, oldAssignment{
		sealed.Assignment.Partitions, sealed.Assignment.Primary, sealed.Assignment.Backup, sealed.Assignment.Replicas}}
	for _, tc := range []struct {
		name   string
		state  any
		refuse bool
	}{
		{"as sealed", sealed, false},
		{"partition config edited", edit(func(st *ControllerState) { st.Partition.MaxRulesPerPartition = 2 }), true},
		{"primaries short", edit(func(st *ControllerState) { st.Assignment.Primary = st.Assignment.Primary[1:] }), true},
		{"backups short", edit(func(st *ControllerState) { st.Assignment.Backup = st.Assignment.Backup[1:] }), true},
		{"partitions sealed, no digest", old, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Seal(tc.state); err != nil {
				t.Fatal(err)
			}
			st, ok, err := ReadState(j)
			j.Close()
			if !ok {
				t.Fatal("ReadState found no state")
			}
			if refused := err != nil; refused != tc.refuse {
				t.Fatalf("ReadState error %v, want refused=%v", err, tc.refuse)
			}
			if !tc.refuse && !reflect.DeepEqual(st, sealed) {
				t.Fatalf("rebuilt state differs from the one sealed:\n%+v\n%+v", st, sealed)
			}
			c, _, err := NewControllerFromJournal(n, dir)
			if refused := err != nil; refused != tc.refuse || refused != (c == nil) {
				t.Fatalf("recovery returned controller %v and error %v, want refused=%v", c != nil, err, tc.refuse)
			}
			if c != nil {
				c.Journal().Close()
			}
		})
	}
}

// classBenchState seals the state of a controller running a 1,000-rule
// ClassBench-like policy, cut into leaves of at most leaves rules, placed
// twice over on three authorities and staged in a generation band as a
// consistent update leaves it, into a fresh journal. It returns the
// journal, the policy and the state sealed.
func classBenchState(tb testing.TB, leaves int) (*journal.Journal, []flowspace.Rule, ControllerState) {
	tb.Helper()
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: 1000, MaxDepth: 6, PortRangeFrac: 0.2, DropFrac: 0.1,
		Egresses: []uint32{1, 2, 3, 4}, Seed: 1,
	})
	c := Attach(nil, nil, []uint32{1, 2, 3}, PartitionConfig{MaxRulesPerPartition: leaves}, func(parts []Partition, auths []uint32) (Assignment, error) {
		return AssignWithReplication(parts, auths, 2)
	})
	a, err := c.assign(policy)
	if err != nil {
		tb.Fatal(err)
	}
	c.run = Running{Policy: policy, Assignment: stageAssignment(a, 1<<32), Generation: 1 << 32}
	j, err := journal.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(j.Close)
	st := c.State()
	if err := j.Seal(st); err != nil {
		tb.Fatal(err)
	}
	return j, policy, st
}

// TestSealedStateIsAboutThePolicy: a state seals no partition's clipped
// rules, so at 1,000 ClassBench rules in leaves of 4 (thousands of
// partitions, tens of thousands of clipped rules) it is at most twice the
// policy's JSON, and what ReadState rebuilds from it is the state sealed.
func TestSealedStateIsAboutThePolicy(t *testing.T) {
	j, policy, want := classBenchState(t, 4)
	encoded, err := json.Marshal(policy)
	if err != nil {
		t.Fatal(err)
	}
	if size := len(j.Sealed()); size > 2*len(encoded) {
		t.Fatalf("sealed state is %d bytes for %d partitions, the policy %d: want at most twice the policy",
			size, len(want.Assignment.Partitions), len(encoded))
	}
	got, ok, err := ReadState(j)
	if err != nil || !ok {
		t.Fatalf("ReadState: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the rebuilt state differs from the one sealed")
	}
}

var readStateSink ControllerState

// BenchmarkReadState prices a recovery's read: decoding the sealed
// decisions and rebuilding the partitions from them, for the policy of
// TestSealedStateIsAboutThePolicy in small and large leaves.
func BenchmarkReadState(b *testing.B) {
	for _, leaves := range []int{4, 50} {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			j, _, _ := classBenchState(b, leaves)
			b.SetBytes(int64(len(j.Sealed())))
			b.ResetTimer()
			for range b.N {
				st, _, err := ReadState(j)
				if err != nil {
					b.Fatal(err)
				}
				readStateSink = st
			}
		})
	}
}
