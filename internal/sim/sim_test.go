package sim

import (
	"math"
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("clock must advance to horizon, got %v", e.Now())
	}
}

func TestTiesRunInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order broken: %v", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New()
	hits := 0
	var tick func()
	tick = func() {
		hits++
		if hits < 5 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run(100)
	if hits != 5 {
		t.Fatalf("hits = %d", hits)
	}
	if e.Processed != 5 {
		t.Fatalf("processed = %d", e.Processed)
	}
}

func TestHorizonStopsExecution(t *testing.T) {
	e := New()
	ran := false
	e.At(50, func() { ran = true })
	n := e.Run(10)
	if n != 0 || ran {
		t.Fatal("event beyond horizon must not run")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run(100)
	if !ran {
		t.Fatal("event must run once horizon passes")
	}
}

func TestSchedulingInThePastClamps(t *testing.T) {
	e := New()
	var at float64 = -1
	e.At(5, func() {
		e.At(1, func() { at = e.Now() }) // in the past
	})
	e.Run(10)
	if at != 5 {
		t.Fatalf("past event must run at current time, got %v", at)
	}
}

func TestStationInfiniteRate(t *testing.T) {
	e := New()
	s := NewStation(e, 0, 0)
	var done []float64
	e.At(2, func() { s.Submit(func(at float64) { done = append(done, at) }) })
	e.Run(10)
	if len(done) != 1 || done[0] != 2 {
		t.Fatalf("infinite-rate completion = %v", done)
	}
}

func TestStationServiceRate(t *testing.T) {
	e := New()
	s := NewStation(e, 10, 0) // 10 jobs/s → 0.1s service
	var done []float64
	for i := 0; i < 3; i++ {
		e.At(0, func() { s.Submit(func(at float64) { done = append(done, at) }) })
	}
	e.Run(10)
	want := []float64{0.1, 0.2, 0.3}
	if len(done) != 3 {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if math.Abs(done[i]-want[i]) > 1e-9 {
			t.Fatalf("completion %d = %v want %v", i, done[i], want[i])
		}
	}
}

func TestStationSaturationThroughput(t *testing.T) {
	// Offer 2x the station's capacity for 10s; completed jobs must track
	// capacity, not offered load — the saturation shape the throughput
	// figures rely on.
	e := New()
	s := NewStation(e, 100, 0)
	completed := 0
	for i := 0; i < 2000; i++ {
		at := float64(i) * 0.005 // 200/s offered
		e.At(at, func() { s.Submit(func(float64) { completed++ }) })
	}
	e.Run(10)
	if completed < 950 || completed > 1001 {
		t.Fatalf("completed = %d, want ~1000 (capacity-bound)", completed)
	}
}

func TestStationQueueLimitDrops(t *testing.T) {
	e := New()
	s := NewStation(e, 1, 2)
	accepted := 0
	e.At(0, func() {
		for i := 0; i < 5; i++ {
			if s.Submit(func(float64) {}) {
				accepted++
			}
		}
	})
	e.Run(100)
	if accepted != 2 || s.Drops != 3 {
		t.Fatalf("accepted=%d drops=%d", accepted, s.Drops)
	}
	// Drained, the queue takes a full load again.
	e.At(200, func() {
		for i := 0; i < 2; i++ {
			if !s.Submit(func(float64) {}) {
				t.Errorf("submission %d refused by a drained station", i)
			}
		}
	})
	e.Run(300)
}

func TestStationQueueDrainsOverTime(t *testing.T) {
	e := New()
	s := NewStation(e, 10, 3)
	drops := 0
	// Submit one job every 0.05s (20/s) against 10/s capacity with a short
	// queue: roughly half must drop once the queue fills.
	for i := 0; i < 100; i++ {
		e.At(float64(i)*0.05, func() {
			if !s.Submit(func(float64) {}) {
				drops++
			}
		})
	}
	e.Run(100)
	if drops < 30 || drops > 60 {
		t.Fatalf("drops = %d, want roughly half", drops)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New()
		s := NewStation(e, 7, 5)
		var out []float64
		for i := 0; i < 50; i++ {
			e.At(float64(i%13)*0.01, func() {
				s.Submit(func(at float64) { out = append(out, at) })
			})
		}
		e.Run(100)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
