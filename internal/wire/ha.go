package wire

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"difane/internal/journal"
	"difane/internal/telemetry"
)

// Replicated controller HA. With cfg.HA.Replicas ≥ 2 the cluster runs a
// set of controller replicas, each owning a WAL journal (internal/journal).
// The leader appends every control-plane event (death, revive, epoch
// raise) to its journal and ships the sealed record to live followers —
// log shipping over the control fabric. Killing the leader
// (KillController) triggers an automatic election: after ElectionDelay the
// most caught-up live follower wins, catches the other followers up,
// raises the fencing epoch (so the dead leader's straggling FlowMods are
// rejected by the epoch machinery), and takes over — the switches'
// control channels re-establish toward it.
// No RestoreController call is needed; RestoreController's HA role shrinks
// to reviving dead replicas (and promoting one only when every replica
// was killed).

// ctrlReplica is one controller replica: an identity, a journal, and a
// liveness flag.
type ctrlReplica struct {
	id   int
	dir  string
	jrnl *journal.Journal
	// alive is guarded by Cluster.haMu for writes; reads are lock-free.
	alive bool
}

// initHA opens the replica journals and seats replica 0 as leader. A
// journal directory that survived a previous incarnation re-seeds the
// fencing epoch from its durable records.
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
		r := &ctrlReplica{id: i, dir: rdir, jrnl: j, alive: true}
		// Resume: adopt the highest epoch any replica made durable, so a
		// restarted cluster fences out every previous incarnation.
		recs, err := j.RecordsAfter(0)
		if err != nil {
			c.closeHA()
			return err
		}
		for _, rec := range recs {
			if rec.Kind == "epoch" {
				var e struct {
					Epoch uint64 `json:"epoch"`
				}
				if json.Unmarshal(rec.Data, &e) == nil {
					c.SetEpoch(e.Epoch)
				}
			}
		}
		c.replicas = append(c.replicas, r)
	}
	c.leaderID.Store(0)
	c.journalAppend("boot", map[string]any{
		"switches": len(c.cfg.Switches), "replicas": c.cfg.HA.Replicas,
		"epoch": c.epoch.Load(),
	})
	return nil
}

// journalAppend durably records a control-plane event at the leader and
// ships it to every live follower. A no-op in single-controller mode or
// while no leader holds office (the event is control-plane telemetry, not
// packet state — losing it across an election window is acceptable).
func (c *Cluster) journalAppend(kind string, payload any) {
	if len(c.replicas) == 0 {
		return
	}
	c.haMu.Lock()
	c.journalAppendLocked(kind, payload)
	c.haMu.Unlock()
}

// journalAppendLocked is journalAppend with haMu held.
func (c *Cluster) journalAppendLocked(kind string, payload any) {
	lid := int(c.leaderID.Load())
	if lid < 0 {
		return
	}
	leader := c.replicas[lid]
	rec, err := leader.jrnl.AppendEntry(kind, payload)
	if err != nil {
		return
	}
	for _, r := range c.replicas {
		if r.id != lid && r.alive {
			// A gap error means the follower revived without catch-up; it
			// is repaired by catchUpLocked at the next election/revival.
			_ = r.jrnl.AppendReplica(rec)
		}
	}
}

// catchUpLocked streams the source replica's records to every other live
// replica that is behind. Caller holds haMu.
func (c *Cluster) catchUpLocked(src int) {
	leader := c.replicas[src]
	for _, r := range c.replicas {
		if r.id == src || !r.alive {
			continue
		}
		missing, err := leader.jrnl.RecordsAfter(r.jrnl.NextSeq() - 1)
		if err != nil {
			continue
		}
		for _, rec := range missing {
			if r.jrnl.AppendReplica(rec) != nil {
				break
			}
		}
	}
}

// killLeader is KillController's HA path: crash the leader replica, drop
// every control connection, and schedule the election.
func (c *Cluster) killLeader() bool {
	c.haMu.Lock()
	lid := int(c.leaderID.Load())
	if lid < 0 || !c.ctrlDown.CompareAndSwap(false, true) {
		c.haMu.Unlock()
		return false
	}
	killedAt := time.Now()
	r := c.replicas[lid]
	r.alive = false
	r.jrnl.Close()
	c.leaderID.Store(-1)
	anyFollower := false
	for _, f := range c.replicas {
		if f.alive {
			anyFollower = true
			break
		}
	}
	c.haMu.Unlock()
	c.cold.controllerOutages.Add(1)
	c.Span(telemetry.Event{
		Kind: telemetry.EvControllerDown, Node: telemetry.ClusterNode,
		Value: c.epoch.Load(),
	})
	// The leader's connections are gone: switches reconnect (toward the
	// next leader) once the election seats one.
	for _, n := range c.switches {
		n.closeConns()
	}
	if anyFollower {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.runElection(killedAt)
		}()
	}
	return true
}

// runElection seats a new leader after the election delay: the most
// caught-up live replica wins (highest durable sequence, ties to the
// lowest id), catches the other followers up, and fences the old leader
// out with a raised epoch.
func (c *Cluster) runElection(killedAt time.Time) {
	if !sleepCtx(c.ctx, c.cfg.HA.ElectionDelay) {
		return
	}
	c.haMu.Lock()
	if c.leaderID.Load() >= 0 || c.closed.Load() {
		// Someone else (RestoreController) already seated a leader.
		c.haMu.Unlock()
		return
	}
	winner := c.pickWinnerLocked()
	if winner < 0 {
		c.haMu.Unlock()
		return
	}
	c.catchUpLocked(winner)
	newEpoch := c.epoch.Add(1)
	c.leaderID.Store(int32(winner))
	c.journalAppendLocked("epoch", map[string]any{"epoch": newEpoch, "leader": winner})
	c.haMu.Unlock()
	c.cold.leaderElections.Add(1)
	c.cold.recordElection(time.Since(killedAt).Seconds())
	c.Span(telemetry.Event{
		Kind: telemetry.EvLeaderElected, Node: telemetry.ClusterNode,
		Peer: uint32(winner), Value: newEpoch,
	})
	c.finishFailover(newEpoch)
}

// pickWinnerLocked returns the most caught-up live replica, or -1.
func (c *Cluster) pickWinnerLocked() int {
	winner, best := -1, uint64(0)
	for _, r := range c.replicas {
		if !r.alive {
			continue
		}
		if seq := r.jrnl.NextSeq(); winner < 0 || seq > best {
			winner, best = r.id, seq
		}
	}
	return winner
}

// finishFailover completes a controller failover under the new leader:
// BFD sessions restart their handshakes quietly, the fallback detector's
// clocks restart, and the switches' connection managers (held while
// ctrlDown) re-establish control channels toward the new leader.
func (c *Cluster) finishFailover(newEpoch uint64) {
	c.resetBFD()
	now := time.Now().UnixNano()
	for _, n := range c.switches {
		n.lastBeat.Store(now)
	}
	c.ctrlDown.Store(false)
	c.Span(telemetry.Event{
		Kind: telemetry.EvControllerUp, Node: telemetry.ClusterNode,
		Value: newEpoch,
	})
}

// restoreReplicas is RestoreController's HA path: revive every dead
// replica (reopening its journal) and catch it up from the leader. Only
// when no leader holds office — every replica was killed, or restore
// raced ahead of the election — does it promote one itself.
func (c *Cluster) restoreReplicas() bool {
	c.haMu.Lock()
	changed := false
	for _, r := range c.replicas {
		if r.alive {
			continue
		}
		j, err := journal.Open(r.dir)
		if err != nil {
			continue
		}
		r.jrnl = j
		r.alive = true
		changed = true
	}
	lid := int(c.leaderID.Load())
	if lid >= 0 {
		c.catchUpLocked(lid)
		c.haMu.Unlock()
		return changed
	}
	winner := c.pickWinnerLocked()
	if winner < 0 {
		c.haMu.Unlock()
		return changed
	}
	c.catchUpLocked(winner)
	newEpoch := c.epoch.Add(1)
	c.leaderID.Store(int32(winner))
	c.journalAppendLocked("epoch", map[string]any{"epoch": newEpoch, "leader": winner})
	c.haMu.Unlock()
	c.finishFailover(newEpoch)
	return true
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
	if len(c.replicas) == 0 {
		return -1
	}
	return int(c.leaderID.Load())
}

// ReplicaAlive reports whether replica id is live.
func (c *Cluster) ReplicaAlive(id int) bool {
	c.haMu.Lock()
	defer c.haMu.Unlock()
	if id < 0 || id >= len(c.replicas) {
		return false
	}
	return c.replicas[id].alive
}
