package wire

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"difane/internal/core"
)

func TestStatusSnapshot(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	c.Inject(0, httpHeader(1), 100)
	awaitDelivery(t, c)
	st := c.Status()
	if len(st.Switches) != 5 {
		t.Fatalf("switches = %d", len(st.Switches))
	}
	// Sorted by ID, partition rules everywhere, the authority hosts rules.
	var sawAuthorityRules, sawPartitionHit bool
	for i, ss := range st.Switches {
		if i > 0 && ss.ID <= st.Switches[i-1].ID {
			t.Fatal("status must be ID-sorted")
		}
		if ss.PartitionRules == 0 {
			t.Fatalf("switch %d has no partition rules", ss.ID)
		}
		if ss.AuthorityRules > 0 {
			sawAuthorityRules = true
		}
		if ss.PartitionHits > 0 {
			sawPartitionHit = true
		}
	}
	if !sawAuthorityRules || !sawPartitionHit {
		t.Fatalf("status missing activity: %+v", st)
	}
}

func TestStatusHandlerServesJSON(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	c.Inject(0, httpHeader(1), 100)
	awaitDelivery(t, c)
	// Let the cache install land so the snapshot is interesting.
	deadline := time.Now().Add(5 * time.Second)
	for c.CacheLen(0) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	srv := httptest.NewServer(c.StatusHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Switches) != 5 {
		t.Fatalf("decoded switches = %d", len(st.Switches))
	}
	found := false
	for _, ss := range st.Switches {
		if ss.ID == 0 && ss.CacheEntries > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingress cache entry must be visible: %+v", st)
	}

	// Non-GET is rejected.
	req, _ := http.NewRequest(http.MethodPost, srv.URL, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", resp2.StatusCode)
	}
}

// TestQueueGaugesShareOneDefinition: a switch's current queue depth and its
// high-water mark both read its deepest input ring, in Status and in the
// metrics alike. Two ingresses redirect into an authority that cannot
// answer (its node lock held), so two of its rings fill at once: the
// current depth must not read above the high-water mark, nor that above
// QueueDepth.
func TestQueueGaugesShareOneDefinition(t *testing.T) {
	c, d := verdictCluster(t, core.StrategyExact, testPolicy())
	auth := c.byID(2)
	ingresses := []*node{c.byID(0), c.byID(1)}
	const per = 100
	auth.mu.Lock()
	for i := uint32(0); i < per; i++ {
		for _, n := range ingresses {
			d.InjectPacket(0, n.id, httpHeader(n.id<<16|i).Key(), 100, 0)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for auth.in[ingresses[0].slot].len()+auth.in[ingresses[1].slot].len() < 2*per {
		if time.Now().After(deadline) {
			auth.mu.Unlock()
			t.Fatal("redirects never reached the authority's rings")
		}
		time.Sleep(100 * time.Microsecond)
	}
	st := c.Status().Switches[2]
	// gauge reads switch 2's point of a series, -1 when there is none (no
	// t.Fatal while the authority's lock is held).
	gauge := func(name string) float64 {
		for _, m := range c.Telemetry().Metrics {
			if m.Name == name {
				for _, p := range m.Points {
					if p.Labels[0].Value == "2" {
						return p.Value
					}
				}
			}
		}
		return -1
	}
	depth, peak := gauge("difane_switch_queue_depth"), gauge("difane_switch_peak_queue_depth")
	auth.mu.Unlock()
	d.Run(5)
	if st.QueueDepth < per || st.QueueDepth > st.PeakQueueDepth || st.PeakQueueDepth > c.cfg.QueueDepth {
		t.Fatalf("status: queue_depth %d, peak_queue_depth %d, QueueDepth %d: want %d ≤ queue_depth ≤ peak ≤ QueueDepth",
			st.QueueDepth, st.PeakQueueDepth, c.cfg.QueueDepth, per)
	}
	if depth < per || depth > peak || peak > float64(c.cfg.QueueDepth) {
		t.Fatalf("metrics: difane_switch_queue_depth %v, difane_switch_peak_queue_depth %v, QueueDepth %d",
			depth, peak, c.cfg.QueueDepth)
	}
	if m := c.Measurements(); m.Delivered != 2*per {
		t.Fatalf("delivered %d of %d once the authority answered", m.Delivered, 2*per)
	}
}
