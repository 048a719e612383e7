package telemetry

import (
	"sort"
	"sync/atomic"
	"time"
)

// Ring is a lock-free single-producer-friendly event ring. Writers claim a
// sequence number with one atomic add and store a pointer into the slot it
// maps to; they never block and never wait for readers. Readers snapshot
// whatever is resident. When the ring wraps, old events are overwritten —
// Dropped() accounts for them exactly: dropped = writes − retained.
//
// Multiple producers are safe (the sequence claim linearizes them); in the
// wire cluster each node's data goroutine is the main producer for its own
// ring, with occasional control-plane writers.
type Ring struct {
	slots []atomic.Pointer[Event]
	mask  uint64
	seq   atomic.Uint64
}

// NewRing returns a ring holding capacity events, rounded up to a power of
// two (minimum 8).
func NewRing(capacity int) *Ring {
	c := 8
	for c < capacity {
		c <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[Event], c), mask: uint64(c) - 1}
}

// Cap returns the ring's slot count.
func (r *Ring) Cap() int { return len(r.slots) }

// Publish records ev, stamping its Seq. The event is copied to the heap;
// the caller's struct is not retained.
func (r *Ring) Publish(ev Event) {
	s := r.seq.Add(1) - 1
	ev.Seq = s
	r.slots[s&r.mask].Store(&ev)
}

// Writes returns the number of events ever published.
func (r *Ring) Writes() uint64 { return r.seq.Load() }

// Snapshot returns the resident events in sequence order.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Retained returns how many events are currently resident.
func (r *Ring) Retained() int {
	n := 0
	for i := range r.slots {
		if r.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// Dropped returns how many published events have been overwritten:
// writes − retained.
func (r *Ring) Dropped() uint64 {
	return r.Writes() - uint64(r.Retained())
}

// Recorder is the cluster-wide flight recorder: one ring per node plus an
// enable flag. When disabled, Publish is a no-op and Enabled() is a single
// atomic load — callers gate event construction on it so the tracing-off
// hot path pays one branch.
type Recorder struct {
	enabled  atomic.Bool
	start    time.Time
	rings    map[uint32]*Ring
	ids      []uint32 // sorted node IDs
	capacity int
	unknown  atomic.Uint64 // events for nodes without a ring (dropped)
}

// NewRecorder builds a recorder with one capacity-event ring per node.
func NewRecorder(nodes []uint32, capacity int, enabled bool) *Recorder {
	if capacity <= 0 {
		capacity = 4096
	}
	r := &Recorder{
		start:    time.Now(),
		rings:    make(map[uint32]*Ring, len(nodes)),
		capacity: capacity,
	}
	for _, id := range nodes {
		if _, ok := r.rings[id]; !ok {
			ring := NewRing(capacity)
			r.rings[id] = ring
			r.ids = append(r.ids, id)
			r.capacity = ring.Cap() // post power-of-two rounding
		}
	}
	sort.Slice(r.ids, func(i, j int) bool { return r.ids[i] < r.ids[j] })
	r.enabled.Store(enabled)
	return r
}

// Enabled reports whether tracing is on. This is the hot-path gate: one
// atomic load.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// SetEnabled turns tracing on or off at runtime.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Now returns the recorder-relative timestamp (ns since start) events are
// stamped with.
func (r *Recorder) Now() int64 { return int64(time.Since(r.start)) }

// Publish records ev on its node's ring, stamping TS if unset. A no-op
// when tracing is off. Callers on hot paths should check Enabled() first
// and only then build the event.
func (r *Recorder) Publish(ev Event) {
	if !r.enabled.Load() {
		return
	}
	ring, ok := r.rings[ev.Node]
	if !ok {
		r.unknown.Add(1)
		return
	}
	if ev.TS == 0 {
		ev.TS = r.Now()
	}
	ring.Publish(ev)
}

// Ring returns the ring for one node (nil if unknown). Exposed for tests
// and direct per-node inspection.
func (r *Recorder) Ring(node uint32) *Ring { return r.rings[node] }

// Nodes returns the sorted node IDs the recorder tracks.
func (r *Recorder) Nodes() []uint32 { return r.ids }

// Filter selects events from a recorder snapshot. Zero values mean "any"
// (Node is a pointer because 0 is a valid node ID).
type Filter struct {
	Node    *uint32 // nil = any node
	Kinds   []EventKind
	Flow    uint64 // flow hash, 0 = any
	IPSrc   uint32
	IPDst   uint32
	TPDst   uint16
	Trace   uint64 // trace ID, 0 = any
	SinceTS int64  // only events with TS > SinceTS
	Limit   int    // keep only the most recent Limit events, 0 = all
}

func (f *Filter) match(ev *Event) bool {
	if f.Node != nil && *f.Node != ev.Node {
		return false
	}
	if len(f.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if ev.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Flow != 0 && ev.Flow.Hash != f.Flow {
		return false
	}
	if f.IPSrc != 0 && ev.Flow.IPSrc != f.IPSrc {
		return false
	}
	if f.IPDst != 0 && ev.Flow.IPDst != f.IPDst {
		return false
	}
	if f.TPDst != 0 && ev.Flow.TPDst != f.TPDst {
		return false
	}
	if f.Trace != 0 && ev.Trace != f.Trace {
		return false
	}
	if ev.TS <= f.SinceTS {
		return false
	}
	return true
}

// Events snapshots every ring, applies the filter, and returns the result
// ordered by timestamp (ties broken by node then sequence). With a Limit,
// only the most recent Limit events are returned.
func (r *Recorder) Events(f Filter) []Event {
	var out []Event
	for _, id := range r.ids {
		for _, ev := range r.rings[id].Snapshot() {
			ev := ev
			if f.match(&ev) {
				out = append(out, ev)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// RecorderStats summarizes the recorder's own accounting.
type RecorderStats struct {
	Enabled  bool   `json:"enabled"`
	Nodes    int    `json:"nodes"`
	Capacity int    `json:"capacity_per_node"`
	Writes   uint64 `json:"writes"`
	Retained uint64 `json:"retained"`
	Dropped  uint64 `json:"dropped"`
	Unknown  uint64 `json:"unknown_node"`
}

// Stats sums writes/retained/dropped across all rings.
func (r *Recorder) Stats() RecorderStats {
	s := RecorderStats{
		Enabled:  r.Enabled(),
		Nodes:    len(r.ids),
		Capacity: r.capacity,
		Unknown:  r.unknown.Load(),
	}
	for _, id := range r.ids {
		ring := r.rings[id]
		s.Writes += ring.Writes()
		s.Retained += uint64(ring.Retained())
	}
	s.Dropped = s.Writes - s.Retained
	return s
}
