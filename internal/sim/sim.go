// Package sim is a small deterministic discrete-event simulator. It drives
// the DIFANE and baseline evaluations: events carry closures, time is
// float64 seconds, and per-node service stations model the finite
// processing capacity that produces the paper's saturation behaviour
// (a NOX controller that tops out at tens of thousands of flow setups per
// second, an authority switch at hundreds of thousands).
package sim

import (
	"container/heap"
	"math"
)

// Engine runs events in nondecreasing time order; ties run in schedule
// order, which makes runs fully deterministic.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap

	// Processed counts executed events, as a runaway guard for tests.
	Processed uint64
}

type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// New returns an engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute time t. Scheduling in the past runs the event
// at the current time (never rewinding the clock).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	heap.Push(&e.events, event{at: t, seq: e.seq, fn: fn})
	e.seq++
}

// After schedules fn delay seconds from now.
func (e *Engine) After(delay float64, fn func()) { e.At(e.now+delay, fn) }

// Run executes events until the queue empties or the time horizon passes.
// It returns the number of events executed.
func (e *Engine) Run(horizon float64) uint64 {
	var n uint64
	for e.events.Len() > 0 {
		if e.events[0].at > horizon {
			break
		}
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn()
		n++
		e.Processed++
	}
	if e.now < horizon {
		e.now = horizon
	}
	return n
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.events.Len() }

// Station models a finite-rate FIFO processing resource: a controller CPU,
// a switch's rule-install path, or a software datapath. A job submitted at
// time t begins service when the server frees up and completes one service
// time later; jobs beyond QueueLimit are dropped.
type Station struct {
	eng *Engine

	// Rate is in jobs per second; zero or negative means infinitely fast.
	Rate float64
	// QueueLimit bounds jobs waiting or in service (0 = unbounded).
	QueueLimit int

	busyUntil float64
	inFlight  int

	// Jobs and Drops count submissions and queue-limit drops.
	Jobs  uint64
	Drops uint64
}

// NewStation attaches a station to an engine.
func NewStation(eng *Engine, rate float64, queueLimit int) *Station {
	return &Station{eng: eng, Rate: rate, QueueLimit: queueLimit}
}

// Submit enqueues a job; done runs at its completion time with the
// completion timestamp. Returns false (and counts a drop) if the queue is
// full. Service times are deterministic (1/Rate), which keeps saturation
// thresholds sharp — the behaviour the throughput figures measure.
func (s *Station) Submit(done func(at float64)) bool {
	now := s.eng.now
	if s.Rate <= 0 {
		s.Jobs++
		s.eng.At(now, func() { done(now) })
		return true
	}
	if s.QueueLimit > 0 && s.inFlight >= s.QueueLimit {
		s.Drops++
		return false
	}
	s.Jobs++
	s.inFlight++
	svc := 1.0 / s.Rate
	start := math.Max(now, s.busyUntil)
	finish := start + svc
	s.busyUntil = finish
	s.eng.At(finish, func() {
		s.inFlight--
		done(finish)
	})
	return true
}
