package tcam

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelLookupDuringRollingInstall hammers one table with lookups
// from many goroutines while a writer continuously reinstalls and deletes
// rules. Every lookup must observe a coherent table: it always matches
// (a catch-all is never removed), the returned rule actually covers the
// looked-up key, and it is never a stale higher-priority rule for a
// different port — any of those would mean a lookup walked the index
// while a mutation was half applied. Run under -race this also proves the
// read path is data-race-free against mutations.
func TestParallelLookupDuringRollingInstall(t *testing.T) {
	const (
		ports   = 8
		readers = 8
		rounds  = 2000
	)
	tb := New("race", 0, EvictNone)
	mustInsert(t, tb, 0, rule(1, 1, 0)) // catch-all, never touched again
	for p := 0; p < ports; p++ {
		mustInsert(t, tb, 0, rule(uint64(100+p), 10, uint64(1000+p)))
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: rolling reinstall/delete over the port rules
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < rounds; i++ {
			p := i % ports
			id := uint64(100 + p)
			if i%5 == 4 {
				tb.Delete(id)
			}
			mustInsert(t, tb, float64(i), rule(id, 10, uint64(1000+p)))
		}
	}()

	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				p := (r + i) % ports
				k := keyPort(uint64(1000 + p))
				got, ok := tb.Lookup(float64(i), k, 64)
				switch {
				case !ok:
					errs <- "lookup missed with a catch-all installed"
					return
				case !got.Match.Matches(k):
					errs <- "lookup returned a rule that does not cover the key"
					return
				case got.ID != 1 && got.ID != uint64(100+p):
					errs <- "lookup returned another port's rule"
					return
				}
				// The rule list must always be in TCAM order.
				if i%64 == 0 {
					rules := tb.Rules()
					for j := 1; j < len(rules); j++ {
						if rules[j].Priority > rules[j-1].Priority {
							errs <- "snapshot out of TCAM priority order"
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	if msg, broke := <-errs; broke {
		t.Fatal(msg)
	}
}

// A writer that arrives while a View is held waits for it — the burst
// sees one table state throughout — and proceeds at Release.
func TestWriterWaitsForViewRelease(t *testing.T) {
	tb := New("view", 0, EvictNone)
	mustInsert(t, tb, 0, rule(1, 1, 0))
	v := tb.AcquireView()
	done := make(chan error, 1)
	go func() { done <- tb.Insert(0, rule(2, 10, 80), 0, 0) }()
	select {
	case <-done:
		t.Fatal("insert completed while a View was held")
	case <-time.After(20 * time.Millisecond):
	}
	if got, ok := v.Lookup(0, keyPort(80), 64); !ok || got.ID != 1 {
		t.Fatalf("lookup under the held View: got %v/%v, want rule 1", got, ok)
	}
	v.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert still blocked after Release")
	}
	if got, ok := tb.Lookup(0, keyPort(80), 64); !ok || got.ID != 2 {
		t.Fatalf("lookup after Release: got %v/%v, want rule 2", got, ok)
	}
}

// Advance must not touch the write lock until an entry can have expired
// — called under a held View it would otherwise never return — and the
// bound it goes by must not make an entry that hits keep alive expire
// late or early.
func TestAdvanceTakesNoLockUntilDue(t *testing.T) {
	tb := New("advance", 0, EvictNone)
	underView := func(now float64) {
		t.Helper()
		v := tb.AcquireView()
		defer v.Release()
		done := make(chan struct{})
		go func() { tb.Advance(now); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("Advance(%g) took the write lock with nothing due", now)
		}
	}
	mustInsert(t, tb, 0, rule(1, 1, 0)) // no timeout armed
	underView(1e9)
	if err := tb.Insert(0, rule(2, 10, 80), 5, 0); err != nil {
		t.Fatal(err)
	}
	underView(4.9)
	tb.Lookup(3, keyPort(80), 64) // refreshed: now due at 8, not 5
	tb.Advance(5)
	underView(7.9)
	if tb.Len() != 2 {
		t.Fatal("the refreshed entry expired early")
	}
	tb.Advance(8)
	if tb.Len() != 1 {
		t.Fatal("the refreshed entry did not expire at lastHit+idle")
	}
	underView(1e9) // nothing armed again
}
