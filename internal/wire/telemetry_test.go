package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/telemetry"
)

func newTracedCluster(t *testing.T) *Cluster {
	t.Helper()
	return startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2},
		Policy:      testPolicy(),
		Strategy:    core.StrategyCover,
		Telemetry:   TelemetryConfig{Addr: "127.0.0.1:0", Tracing: true},
	}))
}

// TestTraceRecordsDifaneArc drives the canonical DIFANE flow through a
// traced cluster and asserts the flight recorder captured it: first
// packet redirect → authority resolution → verdict, a cache install at
// the ingress, then a cache-hit forward for the second packet. Finally
// SetTracing(false) must stop the stream.
func TestTraceRecordsDifaneArc(t *testing.T) {
	c := newTracedCluster(t)
	h := httpHeader(1)
	flow := flowOf(&h).Hash

	c.Inject(0, h, 100)
	awaitDelivery(t, c)
	deadline := time.Now().Add(5 * time.Second)
	for c.CacheLen(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cache install never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	c.Inject(0, h, 100)
	awaitDelivery(t, c)

	evs := c.TraceEvents(telemetry.Filter{Flow: flow})
	var redirect, authority, forward *telemetry.Event
	var verdicts []telemetry.Event
	for i := range evs {
		switch ev := &evs[i]; ev.Kind {
		case telemetry.EvRedirect:
			redirect = ev
		case telemetry.EvAuthority:
			authority = ev
		case telemetry.EvForward:
			if ev.Table == telemetry.TableCache {
				forward = ev
			}
		case telemetry.EvVerdict:
			verdicts = append(verdicts, *ev)
		}
	}
	if redirect == nil || redirect.Node != 0 || redirect.Peer != 2 {
		t.Fatalf("missing/wrong redirect event (want ingress 0 -> authority 2): %+v", redirect)
	}
	if authority == nil || authority.Node != 2 || authority.RuleID != 1 || authority.Peer != 0 {
		t.Fatalf("missing/wrong authority event (want node 2 resolving rule 1 for ingress 0): %+v", authority)
	}
	if forward == nil || forward.Node != 0 {
		t.Fatalf("second packet should hit the ingress cache: %+v", forward)
	}
	if len(verdicts) != 2 {
		t.Fatalf("want 2 delivery verdicts, got %d: %+v", len(verdicts), verdicts)
	}
	for _, v := range verdicts {
		if v.Verdict != telemetry.VDelivered || v.Node != 4 {
			t.Fatalf("verdict should be delivered at egress 4: %+v", v)
		}
		if v.Value == 0 {
			t.Fatalf("delivery verdict must carry latency: %+v", v)
		}
	}
	// The authority's cache install back at the ingress shows up via the
	// TCAM hook (no flow context there, so query by kind).
	installs := c.TraceEvents(telemetry.Filter{
		Node: new(uint32), Kinds: []telemetry.EventKind{telemetry.EvInstall},
	})
	found := false
	for _, ev := range installs {
		if ev.Table == telemetry.TableCache {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cache-table install event at ingress 0: %+v", installs)
	}

	// Tracing off: the stream stops; forwarding continues.
	c.SetTracing(false)
	h2 := httpHeader(7)
	c.Inject(0, h2, 100)
	awaitDelivery(t, c)
	if evs := c.TraceEvents(telemetry.Filter{Flow: flowOf(&h2).Hash}); len(evs) != 0 {
		t.Fatalf("events recorded while tracing off: %+v", evs)
	}
}

// TestTelemetryHTTPEndpoints scrapes the live HTTP surface: Prometheus
// text on /metrics, expvar JSON on /vars, the event stream on /trace,
// and the wire status summary on /status.
func TestTelemetryHTTPEndpoints(t *testing.T) {
	c := newTracedCluster(t)
	addr := c.TelemetryAddr()
	if addr == "" {
		t.Fatal("telemetry server did not start")
	}
	c.Inject(0, httpHeader(1), 100)
	awaitDelivery(t, c)

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	prom := string(get("/metrics"))
	for _, want := range []string{
		"# TYPE difane_delivered_total counter",
		"difane_delivered_total 1",
		"difane_trace_enabled 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, prom)
		}
	}

	var vars map[string]any
	if err := json.Unmarshal(get("/vars"), &vars); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	if v, ok := vars["difane_delivered_total"].(float64); !ok || v != 1 {
		t.Errorf("/vars difane_delivered_total = %v, want 1", vars["difane_delivered_total"])
	}

	var tr struct {
		Enabled bool                  `json:"enabled"`
		Events  []telemetry.EventJSON `json:"events"`
	}
	if err := json.Unmarshal(get("/trace?limit=0"), &tr); err != nil {
		t.Fatalf("/trace is not JSON: %v", err)
	}
	if !tr.Enabled || len(tr.Events) == 0 {
		t.Fatalf("/trace: enabled=%v events=%d, want enabled with events", tr.Enabled, len(tr.Events))
	}
	delivered := false
	for _, ev := range tr.Events {
		if ev.Kind == "verdict" && ev.Verdict == "delivered" {
			delivered = true
		}
	}
	if !delivered {
		t.Fatalf("/trace has no delivered verdict: %+v", tr.Events)
	}

	var status map[string]any
	if err := json.Unmarshal(get("/status"), &status); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}

	// The in-process snapshot mirrors the scrape.
	snap := c.Telemetry()
	if v, ok := snap.Value("difane_delivered_total"); !ok || v != 1 {
		t.Errorf("snapshot difane_delivered_total = %v, %v; want 1", v, ok)
	}
}
