package telemetry

import (
	"strings"
	"testing"
)

func TestConvergenceTimelineLifecycle(t *testing.T) {
	c := NewConvergence(0)
	if since := c.ActiveSinceNS(); since != 0 {
		t.Fatalf("quiet tracker reports active since %d", since)
	}

	// First fenced mod of an epoch opens its window and snapshots the
	// counter baseline the quiesce deltas are diffed against.
	base := CounterTotals{Redirects: 100, Shed: 10, Dropped: 5}
	c.NoteMods(7, false, 1, 1000, base)
	c.NoteMods(7, false, 1, 1500, base)
	c.NoteMods(7, true, 1, 2000, base)
	if since := c.ActiveSinceNS(); since != 1000 {
		t.Fatalf("active since = %d, want 1000 (the first mod)", since)
	}
	if _, ok := c.Last(); ok {
		t.Fatal("Last must report nothing before quiescence")
	}

	c.NoteQuiesce(9000, CounterTotals{Redirects: 130, Shed: 12, Dropped: 5})
	tl := c.Timelines()
	if len(tl) != 1 {
		t.Fatalf("got %d timelines", len(tl))
	}
	got := tl[0]
	if got.Epoch != 7 || got.Installs != 2 || got.Withdraws != 1 {
		t.Fatalf("timeline = %+v", got)
	}
	if got.FirstModTS != 1000 || got.LastModTS != 2000 {
		t.Fatalf("mod window = [%d, %d]", got.FirstModTS, got.LastModTS)
	}
	if !got.Converged || got.QuiesceTS != 9000 || got.DurationNS != 8000 {
		t.Fatalf("quiesce stamp wrong: %+v", got)
	}
	if got.RedirectsDuring != 30 || got.ShedDuring != 2 || got.DroppedDuring != 0 {
		t.Fatalf("disturbed-traffic deltas wrong: %+v", got)
	}
	if since := c.ActiveSinceNS(); since != 0 {
		t.Fatalf("active since = %d after quiescence", since)
	}
	last, ok := c.Last()
	if !ok || last.Epoch != 7 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
	// A second quiesce with no open window is a no-op.
	c.NoteQuiesce(10000, CounterTotals{})
	if tl := c.Timelines(); tl[0].QuiesceTS != 9000 {
		t.Fatalf("idle quiesce restamped the timeline: %+v", tl[0])
	}
}

func TestConvergenceRejectAttributedToOpenWindow(t *testing.T) {
	c := NewConvergence(0)
	c.NoteMods(3, false, 1, 100, CounterTotals{})
	c.NoteReject(1, 150) // a stale epoch-1 straggler fenced off mid-update
	c.NoteQuiesce(200, CounterTotals{})
	tl := c.Timelines()
	if len(tl) != 1 || tl[0].Rejects != 1 {
		t.Fatalf("timelines = %+v, want 1 reject on epoch 3's window", tl)
	}
	// Rejects with no open window still count in the totals.
	c.NoteReject(1, 300)
	v := c.View(400)
	if v.Updates != 1 || v.Converged != 1 {
		t.Fatalf("view = %+v", v)
	}
}

func TestConvergenceKeepBoundEvictsOldest(t *testing.T) {
	c := NewConvergence(2)
	c.NoteMods(1, false, 1, 10, CounterTotals{})
	c.NoteMods(2, false, 1, 20, CounterTotals{})
	c.NoteMods(3, false, 1, 30, CounterTotals{})
	tl := c.Timelines()
	if len(tl) != 2 || tl[0].Epoch != 2 || tl[1].Epoch != 3 {
		t.Fatalf("keep=2 retained %+v", tl)
	}
	// The evicted epoch can be reopened without confusing the index.
	c.NoteMods(1, false, 1, 40, CounterTotals{})
	if tl := c.Timelines(); len(tl) != 2 || tl[1].Epoch != 1 {
		t.Fatalf("reopened epoch missing: %+v", tl)
	}
}

func TestConvergenceRegisterMetrics(t *testing.T) {
	c := NewConvergence(0)
	c.NoteMods(5, false, 1, 1000, CounterTotals{})
	c.NoteQuiesce(4000, CounterTotals{Redirects: 8})
	reg := NewRegistry()
	c.RegisterMetrics(reg)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"difane_epoch_updates_total 1",
		"difane_epoch_converged_total 1",
		"difane_epoch_installs_total 1",
		"difane_epoch_active_since_ns 0",
		"difane_epoch_last_duration_ns 3000",
		"difane_epoch_last_redirects_during 8",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in scrape:\n%s", want, out)
		}
	}
}
