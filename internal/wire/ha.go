package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"difane/internal/core"
	"difane/internal/journal"
	"difane/internal/telemetry"
)

// Replicated controller HA. With cfg.HA.Replicas ≥ 2 the cluster runs a
// set of controller replicas, each owning a journal (internal/journal) that
// holds one sealed state. The leader's journal is its controller's, and
// each state it seals reaches the live followers before the controller
// acts on it (replicate).
// Killing the leader deposes its controller; after ElectionDelay the most
// caught-up live follower resumes the controller from its own journal
// (elect, seat). RestoreController only revives dead replicas, and seats
// one itself only when every replica was killed.

// ctrlReplica is one controller replica: an identity, a journal, and a
// liveness flag.
type ctrlReplica struct {
	id   int
	dir  string
	jrnl *journal.Journal
	// alive is guarded by Cluster.haMu for writes; reads are lock-free.
	alive bool
}

// initHA opens the replica journals and makes the most caught-up replica
// (replica 0 on fresh journals) the leader of the controller Boot just ran:
// the boot resumes into its journal under the epoch after the highest one
// the journals hold, so a restarted cluster fences out every previous
// incarnation. No goroutine runs yet.
func (c *Cluster) initHA() error {
	if c.cfg.HA.Replicas < 2 {
		return nil
	}
	dir := c.cfg.HA.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "difane-ha-")
		if err != nil {
			return fmt.Errorf("wire: ha journal dir: %w", err)
		}
		dir = d
		c.haDirOwned = true
	}
	c.haDir = dir
	for i := 0; i < c.cfg.HA.Replicas; i++ {
		rdir := filepath.Join(dir, fmt.Sprintf("replica-%d", i))
		j, err := journal.Open(rdir)
		if err != nil {
			c.closeHA()
			return err
		}
		c.replicas = append(c.replicas, &ctrlReplica{id: i, dir: rdir, jrnl: j, alive: true})
	}
	s := c.sb.Load()
	s.lead = c.pickWinnerLocked()
	c.catchUpLocked(s.lead)
	j := c.replicas[s.lead].jrnl
	durable, _, err := core.ReadState(j)
	if err == nil {
		st := s.ctl.State()
		st.Epoch = durable.Epoch
		s.ctl.Resume(st, j)
		err = s.ctl.JournalErr
	}
	if err != nil {
		c.closeHA()
		return err
	}
	c.catchUpLocked(s.lead)
	return nil
}

// catchUpLocked ships the source replica's sealed state, from memory, to
// every other live replica that is behind. Caller holds haMu.
func (c *Cluster) catchUpLocked(src int) {
	leader := c.replicas[src].jrnl
	seq, sealed := leader.Seq(), leader.Sealed()
	for _, r := range c.replicas {
		if r.id != src && r.alive && r.jrnl.Seq() < seq {
			_ = r.jrnl.Adopt(sealed) // a follower that fails to take it stays behind
		}
	}
}

// elect seats the most caught-up live replica (highest durable sequence,
// ties to the lowest id) as leader once it has caught the other live
// replicas up: its controller resumes from its own journal. killedAt, when
// set, is when the last leader died, and the seat counts as an election.
// It reports false when a leader holds office already, no replica is
// alive, or the winner's journal holds no state.
func (c *Cluster) elect(killedAt time.Time) bool {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	c.haMu.Lock()
	var j *journal.Journal
	winner := c.pickWinnerLocked()
	if winner >= 0 && c.Leader() < 0 && !c.closed.Load() {
		c.catchUpLocked(winner)
		j = c.replicas[winner].jrnl
	}
	c.haMu.Unlock()
	if j == nil {
		return false
	}
	st, ok, err := core.ReadState(j)
	if err != nil || !ok {
		return false
	}
	s := c.seat(st, j, winner)
	if !killedAt.IsZero() {
		c.cold.leaderElections.Add(1)
		c.cold.recordElection(time.Since(killedAt).Seconds())
		c.Span(telemetry.Event{
			Kind: telemetry.EvLeaderElected, Node: telemetry.ClusterNode,
			Peer: uint32(winner), Value: s.ctl.Epoch,
		})
	}
	c.sb.Store(s)
	return true
}

// pickWinnerLocked returns the most caught-up live replica, or -1.
func (c *Cluster) pickWinnerLocked() int {
	winner, best := -1, uint64(0)
	for _, r := range c.replicas {
		if !r.alive {
			continue
		}
		if seq := r.jrnl.Seq(); winner < 0 || seq > best {
			winner, best = r.id, seq
		}
	}
	return winner
}

// seat returns the successor of the controller whose durable state st
// is, journaling to j as replica lead leads (nil and -1 in
// single-controller mode), for the caller to put in office. The old
// sessions' silence was administrative: BFD sessions return to Down,
// quietly, and the switches reconnect. The successor then resumes
// (core.Controller.Resume), whose commit writes what each partition table
// lacks and withdraws what it should not hold, a redirect to a switch the
// detector holds dead among them. Caller holds ctlMu.
func (c *Cluster) seat(st core.ControllerState, j *journal.Journal, lead int) *southbound {
	now := time.Now()
	for _, n := range c.nodes {
		n.bfdCtrl.Reset(now)
		n.bfdSw.Reset(now)
	}
	c.ctrlDown.Store(false)
	s := c.incarnation(true, lead)
	s.run(func(ctl *core.Controller) { ctl.Resume(st, j) })
	c.Span(telemetry.Event{
		Kind: telemetry.EvControllerUp, Node: telemetry.ClusterNode,
		Value: s.ctl.Epoch,
	})
	return s
}

// restoreReplicas is RestoreController's HA path: revive every dead
// replica (reopening its journal) and catch it up from the leader. A
// replica revived while a leader holds office is a follower, and the
// state it held when it died has no standing: it may be one the deposed
// leader sealed and never shipped, at the leader's Seq or past it, which
// catch-up would not replace. So it restarts from an empty journal and
// takes the leader's state whole. Only when no leader holds office —
// every replica was killed, or restore raced ahead of the election — does
// it seat one itself, from the replicas' own journals.
func (c *Cluster) restoreReplicas() bool {
	c.haMu.Lock()
	lid := c.Leader()
	revived := false
	for _, r := range c.replicas {
		if r.alive {
			continue
		}
		if lid >= 0 && os.RemoveAll(r.dir) != nil {
			continue
		}
		j, err := journal.Open(r.dir)
		if err != nil {
			continue
		}
		r.jrnl = j
		r.alive = true
		revived = true
	}
	if lid >= 0 {
		c.catchUpLocked(lid)
	}
	c.haMu.Unlock()
	return c.elect(time.Time{}) || revived
}

// closeHA closes the replica journals and removes the journal root when
// the cluster created it.
func (c *Cluster) closeHA() {
	c.haMu.Lock()
	for _, r := range c.replicas {
		if r.jrnl != nil {
			r.jrnl.Close()
		}
	}
	owned, dir := c.haDirOwned, c.haDir
	c.haDirOwned = false
	c.haMu.Unlock()
	if owned && dir != "" {
		os.RemoveAll(dir)
	}
}

// Leader returns the current leader replica's id, or -1 (no leader in
// office, or single-controller mode).
func (c *Cluster) Leader() int {
	if s := c.sb.Load(); s.ctx.Err() == nil {
		return s.lead
	}
	return -1
}
