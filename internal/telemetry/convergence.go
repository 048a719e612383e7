package telemetry

import "sync"

// CounterTotals is the slice of cluster counters the convergence tracker
// diffs across an update window: a snapshot is taken when the first fenced
// FlowMod of an epoch lands and again at quiescence, and the deltas become
// the "packets redirected/shed/dropped during generation overlap" figures.
// Dropped is packets lost (hole, queue, unreachable, redirect-shed) on
// every backend; a packet the policy told a switch to drop is not one.
type CounterTotals struct {
	Redirects uint64 `json:"redirects"`
	Shed      uint64 `json:"shed"`
	Dropped   uint64 `json:"dropped"`
}

// EpochTimeline is one policy-update generation's convergence record.
// Timestamps are nanoseconds on the owning backend's clock (wall ns since
// cluster start in wire mode, virtual ns in the simulator).
type EpochTimeline struct {
	Epoch      uint64 `json:"epoch"`
	FirstModTS int64  `json:"first_mod_ts_ns"`
	LastModTS  int64  `json:"last_mod_ts_ns"`
	QuiesceTS  int64  `json:"quiesce_ts_ns,omitempty"` // 0 until converged
	DurationNS int64  `json:"duration_ns,omitempty"`   // FirstMod→Quiesce
	Installs   uint64 `json:"installs"`
	Withdraws  uint64 `json:"withdraws"`
	Rejects    uint64 `json:"rejects"` // stale FlowMods fenced off during the window
	// Traffic disturbed while the generation was converging.
	RedirectsDuring uint64 `json:"redirects_during"`
	ShedDuring      uint64 `json:"shed_during"`
	DroppedDuring   uint64 `json:"dropped_during"`
	Converged       bool   `json:"converged"`
}

// Convergence tracks per-epoch policy-update timelines: who installed and
// withdrew how many rules, how long first-FlowMod→quiescence took, and how
// much traffic was redirected, shed, or dropped while two generations
// overlapped. Feed it NoteMods from the controller that sends the FlowMods,
// NoteReject from wherever a switch fences one off, and NoteQuiesce from
// the deployment's quiesce point (the accounting-identity check in wire
// mode, a drained event queue in the simulator).
type Convergence struct {
	mu        sync.Mutex
	timelines []*EpochTimeline
	index     map[uint64]*EpochTimeline
	baseline  CounterTotals // totals at the open of the active window
	keep      int

	updates   uint64
	converged uint64
	installs  uint64
	last      EpochTimeline // most recently converged timeline
}

// NewConvergence returns a tracker retaining the last keep timelines
// (default 64).
func NewConvergence(keep int) *Convergence {
	if keep <= 0 {
		keep = 64
	}
	return &Convergence{index: make(map[uint64]*EpochTimeline), keep: keep}
}

// NoteMods records n FlowMods of the given epoch landing at ts. The first
// mod of an unseen epoch opens its timeline and snapshots the counter
// baseline the quiesce deltas are computed against.
func (c *Convergence) NoteMods(epoch uint64, withdraw bool, n uint64, ts int64, totals CounterTotals) {
	if epoch == 0 || n == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.index[epoch]
	if t == nil {
		t = &EpochTimeline{Epoch: epoch, FirstModTS: ts, LastModTS: ts}
		c.index[epoch] = t
		c.timelines = append(c.timelines, t)
		if len(c.timelines) > c.keep {
			drop := c.timelines[0]
			delete(c.index, drop.Epoch)
			c.timelines = c.timelines[1:]
		}
		c.baseline = totals
		c.updates++
	}
	if ts > t.LastModTS {
		t.LastModTS = ts
	}
	if withdraw {
		t.Withdraws += n
	} else {
		t.Installs += n
		c.installs += n
	}
}

// NoteReject records a stale FlowMod fenced off while epoch was active.
func (c *Convergence) NoteReject(epoch uint64, ts int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.timelines) - 1; i >= 0; i-- {
		if t := c.timelines[i]; !t.Converged {
			t.Rejects++
			return
		}
	}
	_ = epoch // the rejected mod's own (stale) epoch isn't a timeline key
}

// NoteQuiesce stamps every open timeline converged at ts, computing the
// disturbed-traffic deltas against the baseline snapshotted when the
// window opened. Call it from the deployment's quiesce point — the moment
// injected == completed and the fabric drained.
func (c *Convergence) NoteQuiesce(ts int64, totals CounterTotals) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.timelines {
		if t.Converged {
			continue
		}
		t.Converged = true
		t.QuiesceTS = ts
		t.DurationNS = ts - t.FirstModTS
		t.RedirectsDuring = totals.Redirects - c.baseline.Redirects
		t.ShedDuring = totals.Shed - c.baseline.Shed
		t.DroppedDuring = totals.Dropped - c.baseline.Dropped
		c.converged++
		c.last = *t
	}
}

// ActiveSinceNS returns the FirstModTS of the oldest unconverged timeline,
// or 0 when every update has quiesced — the convergence-stall health
// rule's input, exported as difane_epoch_active_since_ns.
func (c *Convergence) ActiveSinceNS() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.timelines {
		if !t.Converged {
			return t.FirstModTS
		}
	}
	return 0
}

// Timelines returns a copy of the retained timelines, oldest first.
func (c *Convergence) Timelines() []EpochTimeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EpochTimeline, 0, len(c.timelines))
	for _, t := range c.timelines {
		out = append(out, *t)
	}
	return out
}

// Last returns the most recently converged timeline (ok=false if none).
func (c *Convergence) Last() (EpochTimeline, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last, c.last.Converged
}

// ConvergenceView is the /convergence JSON shape.
type ConvergenceView struct {
	NowNS         int64           `json:"now_ns"`
	ActiveSinceNS int64           `json:"active_since_ns,omitempty"`
	Updates       uint64          `json:"updates"`
	Converged     uint64          `json:"converged"`
	Timelines     []EpochTimeline `json:"timelines"`
}

// View assembles the endpoint shape at the caller's now.
func (c *Convergence) View(nowNS int64) ConvergenceView {
	v := ConvergenceView{NowNS: nowNS, ActiveSinceNS: c.ActiveSinceNS(), Timelines: c.Timelines()}
	c.mu.Lock()
	v.Updates, v.Converged = c.updates, c.converged
	c.mu.Unlock()
	return v
}

// RegisterMetrics exports the tracker as difane_epoch_* series.
func (c *Convergence) RegisterMetrics(reg *Registry) {
	counter := func(name, help string, fn func() float64) {
		reg.RegisterFunc(name, help, TypeCounter, fn)
	}
	gauge := func(name, help string, fn func() float64) {
		reg.RegisterFunc(name, help, TypeGauge, fn)
	}
	locked := func(fn func() float64) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return fn()
		}
	}
	counter("difane_epoch_updates_total", "Policy-update generations observed.",
		locked(func() float64 { return float64(c.updates) }))
	counter("difane_epoch_converged_total", "Generations that reached quiescence.",
		locked(func() float64 { return float64(c.converged) }))
	counter("difane_epoch_installs_total", "Fenced rule installs across all generations.",
		locked(func() float64 { return float64(c.installs) }))
	gauge("difane_epoch_active_since_ns", "FirstModTS of the oldest unconverged generation (0 = quiet).",
		func() float64 { return float64(c.ActiveSinceNS()) })
	gauge("difane_epoch_last_duration_ns", "First-FlowMod→quiescence duration of the last converged generation.",
		locked(func() float64 { return float64(c.last.DurationNS) }))
	gauge("difane_epoch_last_redirects_during", "Packets redirected while the last generation converged.",
		locked(func() float64 { return float64(c.last.RedirectsDuring) }))
}
