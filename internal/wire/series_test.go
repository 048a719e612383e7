package wire

import (
	"testing"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/telemetry"
)

// The tests in this file pin the shared series that are the only exported
// home of their fact: each produces the fact on a live cluster and checks
// the number a scrape reads, so a series that stops being registered, or
// starts reading the wrong counter, fails here.

// series returns one scrape's metric by name (ok=false when it is not
// exported).
func series(c *Cluster, name string) (telemetry.MetricSnapshot, bool) {
	for _, m := range c.Telemetry().Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return telemetry.MetricSnapshot{}, false
}

// summaryOf reads a summary series' count and sum, failing the test when
// it is not exported as one.
func summaryOf(t *testing.T, c *Cluster, name string) telemetry.SummaryView {
	t.Helper()
	m, ok := series(c, name)
	if !ok || m.Summary == nil {
		t.Fatalf("%s is not exported as a summary (found %v)", name, ok)
	}
	return *m.Summary
}

// valueOf reads an unlabeled counter or gauge, failing the test when it is
// not exported.
func valueOf(t *testing.T, c *Cluster, name string) float64 {
	t.Helper()
	v, ok := c.Telemetry().Value(name)
	if !ok {
		t.Fatalf("%s is not exported", name)
	}
	return v
}

// A killed switch is one death: difane_authority_deaths_total rises by
// exactly 1, and difane_failover_detection_seconds holds the one
// fault-to-verdict latency Measurements recorded.
func TestDeathSeriesCountTheKill(t *testing.T) {
	c := startCluster(t, slack(failoverConfig()))
	if v := valueOf(t, c, "difane_authority_deaths_total"); v != 0 {
		t.Fatalf("difane_authority_deaths_total = %v before any fault", v)
	}
	if !c.KillSwitch(2) {
		t.Fatal("kill failed")
	}
	awaitDead(t, c, 2)
	if v := valueOf(t, c, "difane_authority_deaths_total"); v != 1 {
		t.Fatalf("difane_authority_deaths_total = %v after one kill, want 1", v)
	}
	d := c.Measurements().FailoverDetection
	s := summaryOf(t, c, "difane_failover_detection_seconds")
	if s.Count != 1 || d.N() != 1 || s.Sum != d.Sum() || s.Sum <= 0 {
		t.Fatalf("difane_failover_detection_seconds count %d sum %v; Measurements has %d samples summing %v; want one positive latency",
			s.Count, s.Sum, d.N(), d.Sum())
	}
}

// A trace ring that wraps loses what it overwrites, and
// difane_trace_dropped_total says how much: n writes into an 8-event ring
// drop n − 8.
func TestTraceDroppedCountsRingWraps(t *testing.T) {
	cfg := slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3},
		Authorities: []uint32{1},
		Policy:      testPolicy(),
		Telemetry:   TelemetryConfig{TraceBuffer: 8},
	})
	c := startCluster(t, cfg)
	if v := valueOf(t, c, "difane_trace_dropped_total"); v != 0 {
		t.Fatalf("difane_trace_dropped_total = %v with tracing off", v)
	}
	ring := c.Recorder().Ring(telemetry.ClusterNode)
	if ring.Cap() != 8 {
		t.Fatalf("ring holds %d events, want 8", ring.Cap())
	}
	const n = 21
	for i := 0; i < n; i++ {
		ring.Publish(telemetry.Event{Kind: telemetry.EvInstall, Node: telemetry.ClusterNode, Value: uint64(i)})
	}
	if v := valueOf(t, c, "difane_trace_dropped_total"); v != n-8 {
		t.Fatalf("difane_trace_dropped_total = %v after %d writes into an 8-event ring, want %d", v, n, n-8)
	}
}

// difane_drops_total{kind} is Measurements().Drops kind by kind, and the
// two delay summaries count the deliveries Measurements split between the
// miss path and the cache: one flow's first packet and its second, a policy
// drop and a hole.
func TestDropAndDelaySeriesMatchMeasurements(t *testing.T) {
	// No catch-all rule: port 443 falls in a policy hole.
	c, d := verdictCluster(t, core.StrategyExact, testPolicy()[:2])
	key := func(port uint64) (k flowspace.Key) {
		k[flowspace.FIPSrc], k[flowspace.FTPDst] = 1, port
		return k
	}
	d.InjectPacket(0, 0, key(80), 100, 0)
	d.InjectPacket(0, 0, key(22), 100, 0)
	d.InjectPacket(0, 0, key(443), 100, 0)
	d.Run(5)
	d.InjectPacket(0, 0, key(80), 100, 1)
	d.Run(5)

	m := c.Measurements()
	if m.Delivered != 2 || m.Drops != (core.Drops{Policy: 1, Hole: 1}) {
		t.Fatalf("scenario: delivered %d, drops %+v; want 2 delivered, one policy drop, one hole", m.Delivered, m.Drops)
	}
	drops, ok := series(c, "difane_drops_total")
	if !ok {
		t.Fatal("difane_drops_total is not exported")
	}
	want := map[string]uint64{
		"policy":        m.Drops.Policy,
		"hole":          m.Drops.Hole,
		"queue":         m.Drops.AuthorityQueue,
		"unreachable":   m.Drops.Unreachable,
		"redirect-shed": m.Drops.RedirectShed,
	}
	for _, p := range drops.Points {
		kind := p.Labels[0].Value
		if w, known := want[kind]; !known || p.Value != float64(w) {
			t.Errorf("difane_drops_total{kind=%q} = %v, Measurements has %d (known kind %v)", kind, p.Value, w, known)
		}
		delete(want, kind)
	}
	if len(want) != 0 {
		t.Errorf("difane_drops_total has no point for %v", want)
	}

	for _, s := range []struct {
		name string
		n    int
		sum  float64
	}{
		{"difane_first_packet_delay_seconds", m.FirstPacketDelay.N(), m.FirstPacketDelay.Sum()},
		{"difane_later_packet_delay_seconds", m.LaterPacketDelay.N(), m.LaterPacketDelay.Sum()},
	} {
		got := summaryOf(t, c, s.name)
		if s.n != 1 || got.Count != 1 || got.Sum != s.sum {
			t.Errorf("%s count %d sum %v; Measurements has %d samples summing %v; want one each",
				s.name, got.Count, got.Sum, s.n, s.sum)
		}
	}
}
