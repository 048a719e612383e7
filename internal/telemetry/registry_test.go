package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"difane/internal/metrics"
)

func buildTestRegistry() *Registry {
	reg := NewRegistry()
	reg.RegisterFunc("test_delivered_total", "Packets delivered.", TypeCounter,
		func() float64 { return 42 })
	reg.Register("test_switch_cache_hits_total", "Cache hits per switch.", TypeCounter,
		func() []Point {
			return []Point{
				{Labels: []Label{{"switch", "0"}}, Value: 10},
				{Labels: []Label{{"switch", "1"}}, Value: 20},
			}
		})
	var d metrics.Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i) / 1000)
	}
	reg.RegisterSummary("test_first_packet_delay_seconds", "First-packet delay.",
		func() SummaryView { return DistSummary(&d) })
	return reg
}

func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	if err := buildTestRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_delivered_total Packets delivered.",
		"# TYPE test_delivered_total counter",
		"test_delivered_total 42",
		`test_switch_cache_hits_total{switch="0"} 10`,
		`test_switch_cache_hits_total{switch="1"} 20`,
		"# TYPE test_first_packet_delay_seconds summary",
		`test_first_packet_delay_seconds{quantile="0.5"} 0.05`,
		`test_first_packet_delay_seconds{quantile="0.99"} 0.099`,
		"test_first_packet_delay_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := buildTestRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(b.String()), &obj); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if v, ok := obj["test_delivered_total"].(float64); !ok || v != 42 {
		t.Fatalf("delivered: %v", obj["test_delivered_total"])
	}
	labeled, ok := obj["test_switch_cache_hits_total"].(map[string]any)
	if !ok || labeled["switch=1"].(float64) != 20 {
		t.Fatalf("labeled: %v", obj["test_switch_cache_hits_total"])
	}
	sum, ok := obj["test_first_packet_delay_seconds"].(map[string]any)
	if !ok || sum["count"].(float64) != 100 {
		t.Fatalf("summary: %v", obj["test_first_packet_delay_seconds"])
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterFunc("x", "", TypeGauge, func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	reg.RegisterFunc("x", "", TypeGauge, func() float64 { return 0 })
}

func TestSnapshotValue(t *testing.T) {
	s := &Snapshot{Metrics: buildTestRegistry().Snapshot()}
	if v, ok := s.Value("test_delivered_total"); !ok || v != 42 {
		t.Fatalf("Value: %v %v", v, ok)
	}
	if _, ok := s.Value("nope"); ok {
		t.Fatal("missing metric must report !ok")
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := buildTestRegistry()
	rec := NewRecorder([]uint32{0, 1}, 64, true)
	rec.Publish(Event{Kind: EvRedirect, Node: 0, Peer: 1, Flow: Tuple(1, 2, 3, 4, 6)})
	rec.Publish(Event{Kind: EvVerdict, Node: 1, Verdict: VDelivered, Flow: Tuple(1, 2, 3, 4, 6)})

	srv, err := Serve("127.0.0.1:0", reg, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	h := Handler(reg, rec, nil)
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	if w := get("/metrics"); w.Code != 200 ||
		!strings.Contains(w.Body.String(), "test_delivered_total 42") {
		t.Fatalf("/metrics: %d\n%s", w.Code, w.Body.String())
	}
	if w := get("/vars"); w.Code != 200 || !strings.Contains(w.Body.String(), "test_delivered_total") {
		t.Fatalf("/vars: %d", w.Code)
	}
	w := get("/trace?kind=verdict")
	if w.Code != 200 {
		t.Fatalf("/trace: %d %s", w.Code, w.Body.String())
	}
	var resp TraceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled || len(resp.Events) != 1 || resp.Events[0].Kind != "verdict" {
		t.Fatalf("trace resp: %+v", resp)
	}
	if w := get("/trace?kind=bogus"); w.Code != 400 {
		t.Fatalf("bad kind must 400, got %d", w.Code)
	}
	if w := get("/trace?node=1"); w.Code != 200 {
		t.Fatalf("node filter: %d", w.Code)
	}
	if w := get("/debug/pprof/"); w.Code != 200 {
		t.Fatalf("pprof: %d", w.Code)
	}
}

// buildScrapeRegistry approximates a live wire cluster's schema: a few
// dozen per-switch labeled series plus the latency summaries — the shape
// the pooled scrape buffer is sized for.
func buildScrapeRegistry(switches int) *Registry {
	reg := NewRegistry()
	reg.RegisterFunc("test_delivered_total", "Packets delivered.", TypeCounter,
		func() float64 { return 1234567 })
	reg.RegisterFunc("test_dropped_total", "Packets dropped.", TypeCounter,
		func() float64 { return 89 })
	perSwitch := func(name string) {
		reg.Register(name, "Per-switch series.", TypeCounter, func() []Point {
			pts := make([]Point, switches)
			for i := range pts {
				pts[i] = Point{
					Labels: []Label{{Key: "switch", Value: strconv.Itoa(i)}},
					Value:  float64(1000 + i),
				}
			}
			return pts
		})
	}
	for _, name := range []string{
		"test_switch_cache_hits_total",
		"test_switch_authority_hits_total",
		"test_switch_partition_hits_total",
		"test_switch_cache_evictions_total",
		"test_switch_cache_occupancy",
		"test_switch_tcam_occupancy",
		"test_switch_redirects_total",
		"test_switch_installs_total",
	} {
		perSwitch(name)
	}
	var d metrics.Dist
	for i := 1; i <= 1000; i++ {
		d.Add(float64(i) / 10000)
	}
	reg.RegisterSummary("test_first_packet_delay_seconds", "First-packet delay.",
		func() SummaryView { return DistSummary(&d) })
	reg.RegisterSummary("test_later_packet_delay_seconds", "Later-packet delay.",
		func() SummaryView { return DistSummary(&d) })
	return reg
}

// BenchmarkScrape prices one /metrics render. The pooled scratch buffer
// keeps the text-exposition path at a handful of allocations (the
// collectors' point slices), independent of output size.
func BenchmarkScrape(b *testing.B) {
	reg := buildScrapeRegistry(64)
	// Prime the pool so the steady state is measured, not the first grow.
	if err := reg.WritePrometheus(io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
