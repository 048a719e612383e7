package core

import (
	"reflect"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/testutil"
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
	c1, err := NewControllerWithJournal(n, dir)
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
	authBefore := authorityRuleIDs(n, 2)
	wantEpoch, wantVer, wantGen := c1.Epoch, c1.PolicyVersion, c1.gen
	wantAssign := n.Assignment()
	installs, deletes := n.M.PolicyRuleInstalls, n.M.PolicyRuleDeletes

	// Crash: the controller object is dropped without any shutdown step.
	c2, rep, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Journal().Close()
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
	if n.M.PolicyRuleInstalls != installs || n.M.PolicyRuleDeletes != deletes {
		t.Fatalf("churn counters moved on a clean recovery: %d/%d then %d/%d",
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
	c1, err := NewControllerWithJournal(n, dir)
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
	c, err := NewControllerWithJournal(n, dir)
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
	// LoadState sees the last restart's epoch without attaching.
	st, ok, err := LoadState(dir)
	if err != nil || !ok {
		t.Fatalf("LoadState: ok=%v err=%v", ok, err)
	}
	if st.Epoch != epochs[len(epochs)-1] {
		t.Fatalf("durable epoch = %d, want %d", st.Epoch, epochs[len(epochs)-1])
	}
}

func TestCheckpointThenRecover(t *testing.T) {
	dir := t.TempDir()
	n := testNet(t, NetworkConfig{})
	c1, err := NewControllerWithJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.PolicyPushDelay = 0.05
	_, cleanupAt, err := c1.UpdatePolicyConsistent(recoveredPolicy())
	if err != nil {
		t.Fatal(err)
	}
	n.Run(cleanupAt + 0.01)
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One more committed change after the checkpoint lands in the WAL.
	at, err := c1.UpdatePolicy(testNetPolicy())
	if err != nil {
		t.Fatal(err)
	}
	n.Run(at + 0.01)
	if c1.JournalErr != nil {
		t.Fatal(c1.JournalErr)
	}
	wantVer := c1.PolicyVersion

	c2, rep, err := NewControllerFromJournal(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Journal().Close()
	if !rep.HadState {
		t.Fatal("recovery saw no state")
	}
	if c2.PolicyVersion != wantVer {
		t.Fatalf("version = %d, want %d (WAL record after snapshot lost)", c2.PolicyVersion, wantVer)
	}
	if !PoliciesEqual(n.Policy(), testNetPolicy()) {
		t.Fatal("recovered policy is not the post-checkpoint one")
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
