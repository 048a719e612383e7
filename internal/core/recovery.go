package core

import (
	"encoding/json"
	"fmt"

	"difane/internal/flowspace"
	"difane/internal/journal"
	"difane/internal/proto"
)

// ControllerState is the controller's durable state: everything a restarted
// controller needs to pick up exactly where its predecessor stopped. It is
// what the journal records on every commit and what recovery replays.
type ControllerState struct {
	Epoch         uint64           `json:"epoch"`
	PolicyVersion int              `json:"policy_version"`
	Generation    uint64           `json:"generation"`
	PinRouting    bool             `json:"pin_routing,omitempty"`
	Policy        []flowspace.Rule `json:"policy"`
	Assignment    Assignment       `json:"assignment"`
}

// stateKind is the WAL record kind for full controller states. Each commit
// journals the complete state rather than a delta: states are small (the
// policy plus the partition tree), and full records make replay trivially
// idempotent — the last valid record wins.
const stateKind = "state"

func (c *Controller) currentState() ControllerState {
	return ControllerState{
		Epoch:         c.Epoch,
		PolicyVersion: c.PolicyVersion,
		Generation:    c.gen,
		PinRouting:    c.run.PinRouting,
		Policy:        append([]flowspace.Rule(nil), c.run.Policy...),
		Assignment:    c.run.Assignment,
	}
}

// logState appends the current state to the journal, if one is attached.
// Append failures land in JournalErr because commits run inside scheduled
// callbacks that cannot return errors.
func (c *Controller) logState() {
	if c.jour == nil {
		return
	}
	if _, err := c.jour.Append(stateKind, c.currentState()); err != nil {
		c.JournalErr = err
	}
}

// Checkpoint folds the journal into a snapshot of the current state,
// truncating the WAL. Call it periodically to bound recovery time.
func (c *Controller) Checkpoint() error {
	if c.jour == nil {
		return fmt.Errorf("core: controller has no journal")
	}
	return c.jour.WriteSnapshot(c.currentState())
}

// Journal returns the attached journal, or nil.
func (c *Controller) Journal() *journal.Journal { return c.jour }

// NewControllerWithJournal attaches a fresh controller to the network and
// to a journal at dir: every committed policy update, rebalance, and
// recovery is durably recorded. The initial state is journaled immediately
// so a crash before the first update still recovers the running epoch.
func NewControllerWithJournal(n *Network, dir string) (*Controller, error) {
	j, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	c := NewController(n)
	c.jour = j
	c.logState()
	if c.JournalErr != nil {
		j.Close()
		return nil, c.JournalErr
	}
	return c, nil
}

// AttachJournal starts journaling an existing controller to dir: the
// current state is recorded immediately, and every later commit follows.
// It refuses to replace a journal that is already attached.
func (c *Controller) AttachJournal(dir string) error {
	if c.jour != nil {
		return fmt.Errorf("core: controller already has a journal at %s", c.jour.Dir())
	}
	j, err := journal.Open(dir)
	if err != nil {
		return err
	}
	c.jour = j
	c.logState()
	if c.JournalErr != nil {
		c.jour = nil
		j.Close()
		return c.JournalErr
	}
	return nil
}

// replayState loads the newest durable ControllerState from an open
// journal: snapshot first, then every valid WAL state record (last wins).
func replayState(j *journal.Journal) (ControllerState, bool, error) {
	var st ControllerState
	found := false
	_, hadSnap, err := j.Replay(&st, func(rec journal.Record) error {
		if rec.Kind != stateKind {
			return nil
		}
		var s ControllerState
		if err := json.Unmarshal(rec.Data, &s); err != nil {
			return fmt.Errorf("core: journal record %d: %w", rec.Seq, err)
		}
		st = s
		found = true
		return nil
	})
	if err != nil {
		return ControllerState{}, false, err
	}
	return st, found || hadSnap, nil
}

// LoadState reads the newest durable controller state from a journal
// directory without attaching to it. ok is false when the journal holds no
// state (fresh directory).
func LoadState(dir string) (ControllerState, bool, error) {
	j, err := journal.Open(dir)
	if err != nil {
		return ControllerState{}, false, err
	}
	defer j.Close()
	return replayState(j)
}

// RecoveryReport says what a journal recovery found and repaired.
type RecoveryReport struct {
	// HadState is false when the journal was empty (fresh start).
	HadState bool
	// Installed / Deleted count the authority rules reconciliation had to
	// add or withdraw. Both are zero when the switches never diverged from
	// the journaled state — the common crash-restart case.
	Installed int
	Deleted   int
}

// NewControllerFromJournal restarts a controller from its journal: the
// durable state (policy, assignment, generation) is replayed, the fencing
// epoch is bumped past the dead controller's, and the live switch tables
// are *reconciled* against the recovered state rather than cleared and
// reinstalled — ingress caches survive, and authority rules that never
// diverged keep their counters. The bumped epoch is journaled before
// returning, so a second crash cannot resurrect the old epoch.
func NewControllerFromJournal(n *Network, dir string) (*Controller, RecoveryReport, error) {
	j, err := journal.Open(dir)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	st, found, err := replayState(j)
	if err != nil {
		j.Close()
		return nil, RecoveryReport{}, err
	}
	c := NewController(n)
	c.jour = j
	var rep RecoveryReport
	if found {
		rep.HadState = true
		c.Epoch = st.Epoch + 1
		c.PolicyVersion = st.PolicyVersion
		c.gen = st.Generation
		c.run = Running{Policy: st.Policy, Assignment: st.Assignment, PinRouting: st.PinRouting}
		rep.Installed, rep.Deleted = c.Reconcile()
	}
	c.logState()
	if c.JournalErr != nil {
		err := c.JournalErr
		j.Close()
		return nil, rep, err
	}
	return c, rep, nil
}

// Reconcile makes every switch's installed state match the controller's
// desired state while leaving already-correct entries untouched: ingress
// caches survive, matching authority rules keep their counters, and only
// genuinely stale rules are withdrawn or missing ones added. It is the
// recovery path's alternative to tearing everything down and reinstalling,
// and is also the repair for any detected divergence between controller
// intent and switch reality. Returns the authority rules added and the
// stale rules removed.
func (c *Controller) Reconcile() (installed, deleted int) {
	a := c.run.Assignment
	tables := authorityTables(a)
	// Partition rules use fixed per-partition IDs; anything beyond the
	// current partition count is a leftover from a larger old assignment.
	maxPartID := partitionIDBase + uint64(2*len(a.Partitions))
	for _, id := range c.sb.Switches() {
		desired := make(map[uint64]flowspace.Rule, len(tables[id]))
		for _, r := range tables[id] {
			desired[r.ID] = r
		}
		kept := make(map[uint64]bool, len(desired))
		deleted += len(c.withdraw(id, proto.TableAuthority, func(r *flowspace.Rule) bool {
			if d, ok := desired[r.ID]; ok && d == *r {
				kept[r.ID] = true // already installed and identical: keep counters
				return false
			}
			return true
		}))
		for _, r := range tables[id] {
			if !kept[r.ID] && c.sb.FlowMod(id, proto.FlowMod{Table: proto.TableAuthority, Op: proto.OpAdd, Rule: r}) == nil {
				installed++
			}
		}
		deleted += len(c.withdraw(id, proto.TablePartition, func(r *flowspace.Rule) bool {
			return r.ID >= maxPartID
		}))
	}
	c.sb.Note(0, false, uint64(installed))
	c.sb.Note(0, true, uint64(deleted))
	// Fresh miss handlers for the recovered assignment, and its partition
	// rules (fixed IDs replace in place: no churn when targets are unchanged).
	c.adopt(a, false)
	return installed, deleted
}
