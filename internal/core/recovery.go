package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"difane/internal/flowspace"
	"difane/internal/journal"
	"difane/internal/proto"
)

// ControllerState is the controller's durable state: what a restarted
// controller needs to pick up exactly where its predecessor stopped, sealed
// whole at every commit. It holds decisions only: the partitions' clipped
// rules are not sealed, and ReadState rebuilds them from Policy and Partition.
type ControllerState struct {
	Epoch         uint64           `json:"epoch"`
	PolicyVersion int              `json:"policy_version"`
	Generation    uint64           `json:"generation"` // the staging counter
	Band          uint64           `json:"band"`       // Running.Generation
	PinRouting    bool             `json:"pin_routing,omitempty"`
	Policy        []flowspace.Rule `json:"policy"`
	Partition     PartitionConfig  `json:"partition"`
	Assignment    Assignment       `json:"assignment"`
	Regions       [2]uint32        `json:"regions"` // digestOf(Assignment.Partitions)
}

// digestOf returns the count of parts and the CRC32-IEEE of their regions.
func digestOf(parts []Partition) [2]uint32 {
	buf := make([]byte, 0, len(parts)*16*int(flowspace.NumFields))
	for i := range parts {
		for _, f := range parts[i].Region.Fields {
			buf = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, f.Value), f.Mask)
		}
	}
	return [2]uint32{uint32(len(parts)), crc32.ChecksumIEEE(buf)}
}

// State returns c's state as a journal seals it.
func (c *Controller) State() ControllerState {
	return ControllerState{
		Epoch:         c.Epoch,
		PolicyVersion: c.PolicyVersion,
		Generation:    c.gen,
		Band:          c.run.Generation,
		PinRouting:    c.run.PinRouting,
		Policy:        append([]flowspace.Rule(nil), c.run.Policy...),
		Partition:     c.partition,
		Assignment:    c.run.Assignment,
		Regions:       digestOf(c.run.Assignment.Partitions),
	}
}

// logState seals the current state into the journal, if one is attached.
// Failures land in JournalErr because commits run inside scheduled
// callbacks that cannot return errors.
func (c *Controller) logState() {
	if c.jour == nil {
		return
	}
	if err := c.jour.Seal(c.State()); err != nil {
		c.JournalErr = err
	}
}

// Journal returns the attached journal, or nil.
func (c *Controller) Journal() *journal.Journal { return c.jour }

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

// ReadState loads the durable ControllerState an open journal holds, its
// partitions rebuilt and staged into the sealed band. ok is false when it
// holds none. A state whose rebuild does not match its digest or placement
// (another partitioner's, or an older format's) is refused.
func ReadState(j *journal.Journal) (ControllerState, bool, error) {
	var st ControllerState
	if ok, err := j.Load(&st); !ok || err != nil {
		return st, ok, err
	}
	a := &st.Assignment
	a.Partitions = BuildPartitions(st.Policy, st.Partition)
	if d, n := digestOf(a.Partitions), len(a.Partitions); d != st.Regions ||
		len(a.Primary) != n || len(a.Backup) != n || a.Replicas != nil && len(a.Replicas) != n {
		return st, true, fmt.Errorf("core: sealed state in %s does not match its rebuild (regions %v sealed, %v rebuilt; placement of %d): sealed by another partitioner or in an older format", j.Dir(), st.Regions, d, len(a.Primary))
	}
	if st.Band != 0 {
		keyIntoBand(a.Partitions, st.Band)
	}
	return st, true, nil
}

// RecoveryReport says what a journal recovery found and repaired.
type RecoveryReport struct {
	// HadState is false when the journal was empty (fresh start).
	HadState bool
	// Installed / Deleted count the authority rules reconciliation had to
	// add or withdraw. The partition tables are the resume's commit's to
	// write and are not counted. Both are zero when the switches never
	// diverged from the journaled state — the common crash-restart case.
	Installed int
	Deleted   int
}

// NewControllerFromJournal restarts a controller from its journal: a
// journal holding a state is resumed from (Resume), a fresh one starts the
// first incarnation and journals it.
func NewControllerFromJournal(n *Network, dir string) (*Controller, RecoveryReport, error) {
	j, err := journal.Open(dir)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	st, found, err := ReadState(j)
	if err != nil {
		j.Close()
		return nil, RecoveryReport{}, err
	}
	c := NewController(n)
	var rep RecoveryReport
	if found {
		rep = c.Resume(st, j)
	} else {
		c.jour = j
		c.logState()
	}
	if c.JournalErr != nil {
		err := c.JournalErr
		j.Close()
		return nil, rep, err
	}
	return c, rep, nil
}

// Resume makes c the successor of the incarnation whose durable state st
// is, the one recovery step of both backends: c takes over st's policy,
// partition config, assignment, band and generation counter under epoch
// st.Epoch+1, journals that to j (nil: no journal), and only then
// reconciles the switches against it.
func (c *Controller) Resume(st ControllerState, j *journal.Journal) RecoveryReport {
	c.jour = j
	c.Epoch = st.Epoch + 1
	c.PolicyVersion = st.PolicyVersion
	c.gen, c.partition = st.Generation, st.Partition
	c.run = Running{Policy: st.Policy, Assignment: st.Assignment, Generation: st.Band, PinRouting: st.PinRouting}
	c.logState()
	rep := RecoveryReport{HadState: true}
	rep.Installed, rep.Deleted = c.Reconcile()
	return rep
}

// Reconcile syncs every switch's authority table to the controller's
// desired state, then commits it, which writes the partition tables the
// same way: ingress caches survive, entries already as wanted keep their
// counters, and only stale rules are withdrawn or missing ones added. It is
// recovery's alternative to tearing everything down and reinstalling, and
// the repair for any divergence between controller intent and switch
// reality. Returns the authority rules added and withdrawn, which is also
// all it notes.
func (c *Controller) Reconcile() (installed, deleted int) {
	tables := authorityTables(c.run.Assignment)
	for _, sw := range c.sb.Switches() {
		i, d := c.sync(sw, proto.TableAuthority, tables[sw])
		installed += i
		deleted += len(d)
	}
	c.sb.Note(0, false, uint64(installed))
	c.sb.Note(0, true, uint64(deleted))
	c.adopt(c.run.Assignment, c.run.Generation, false)
	return installed, deleted
}
