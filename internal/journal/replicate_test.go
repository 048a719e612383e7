package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestLogShippingReplicates(t *testing.T) {
	leader := mustOpen(t, t.TempDir())
	defer leader.Close()
	follower := mustOpen(t, t.TempDir())
	defer follower.Close()

	for i := 0; i < 5; i++ {
		mustSeal(t, leader, fakeState{Epoch: uint64(i)})
		if err := follower.Adopt(leader.Sealed()); err != nil {
			t.Fatalf("ship state %d: %v", leader.Seq(), err)
		}
	}
	if l, f := leader.Seq(), follower.Seq(); l != 5 || f != 5 {
		t.Fatalf("seqs: leader %d, follower %d, want 5 each", l, f)
	}
	lb, err := os.ReadFile(filepath.Join(leader.Dir(), stateName))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(filepath.Join(follower.Dir(), stateName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, fb) || !bytes.Equal(fb, leader.Sealed()) {
		t.Fatalf("follower's state file differs from the leader's:\n%s\n%s", lb, fb)
	}
}

// TestAppendReplicaIdempotentAndGapChecked keeps the name of the test of
// the follower's per-record append; Adopt is its successor. A follower that
// missed a state takes the next one whole, and a re-shipped or older state
// is a no-op.
func TestAppendReplicaIdempotentAndGapChecked(t *testing.T) {
	leader := mustOpen(t, t.TempDir())
	defer leader.Close()
	follower := mustOpen(t, t.TempDir())
	defer follower.Close()

	mustSeal(t, leader, fakeState{Epoch: 1})
	s1 := leader.Sealed()
	mustSeal(t, leader, fakeState{Epoch: 2})
	mustSeal(t, leader, fakeState{Epoch: 3})
	s3 := leader.Sealed()

	// A follower that missed state 2 takes state 3 directly: one state is
	// all there is to ship, so there is no gap to refuse.
	if err := follower.Adopt(s3); err != nil {
		t.Fatal(err)
	}
	// Re-shipping it, or shipping an older one, is a no-op, not an error.
	for _, s := range [][]byte{s3, s1} {
		if err := follower.Adopt(s); err != nil {
			t.Fatalf("re-ship: %v", err)
		}
	}
	if st := mustLoad(t, follower); st.Epoch != 3 || follower.Seq() != 3 {
		t.Fatalf("follower holds %+v at seq %d, want epoch 3 at seq 3", st, follower.Seq())
	}
}

// TestAppendReplicaRejectsBadChecksum: a shipped state whose CRC does not
// match its bytes is refused and leaves the follower as it was.
func TestAppendReplicaRejectsBadChecksum(t *testing.T) {
	leader := mustOpen(t, t.TempDir())
	defer leader.Close()
	follower := mustOpen(t, t.TempDir())
	defer follower.Close()

	mustSeal(t, leader, fakeState{Epoch: 3})
	if err := follower.Adopt(leader.Sealed()); err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(leader.Sealed(), []byte(`"epoch":3`), []byte(`"epoch":9`), 1)
	bad = bytes.Replace(bad, []byte(`"seq":1`), []byte(`"seq":2`), 1)
	if err := follower.Adopt(bad); err == nil {
		t.Fatal("a state whose CRC does not match was adopted")
	}
	if st := mustLoad(t, follower); st.Epoch != 3 || follower.Seq() != 1 {
		t.Fatalf("a rejected adopt changed the follower: %+v at seq %d", st, follower.Seq())
	}
}

// A follower restarted while behind catches up with one shipment of the
// leader's state, and reopens to it.
func TestCatchUpFeedAfterRestart(t *testing.T) {
	leader := mustOpen(t, t.TempDir())
	defer leader.Close()
	follower := mustOpen(t, t.TempDir())
	for i := 1; i <= 4; i++ {
		mustSeal(t, leader, fakeState{Epoch: uint64(i)})
		if i == 2 {
			if err := follower.Adopt(leader.Sealed()); err != nil {
				t.Fatal(err)
			}
		}
	}
	follower.Close()

	restarted := mustOpen(t, follower.Dir())
	if restarted.Seq() != 2 {
		t.Fatalf("restarted follower at seq %d, want 2", restarted.Seq())
	}
	if err := restarted.Adopt(leader.Sealed()); err != nil {
		t.Fatal(err)
	}
	restarted.Close()
	reopened := mustOpen(t, follower.Dir())
	defer reopened.Close()
	if st := mustLoad(t, reopened); st.Epoch != 4 || reopened.Seq() != leader.Seq() {
		t.Fatalf("caught-up follower holds %+v at seq %d, want the leader's epoch 4 at seq %d", st, reopened.Seq(), leader.Seq())
	}
}
