package wire

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/telemetry"
)

// newForensicsCluster boots a traced cluster sampling every packet, with
// the HTTP telemetry surface live.
func newForensicsCluster(t *testing.T) *Cluster {
	t.Helper()
	return startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2},
		Policy:      testPolicy(),
		Strategy:    core.StrategyCover,
		Telemetry: TelemetryConfig{
			Addr: "127.0.0.1:0", Tracing: true, TraceSample: 1,
		},
	}))
}

// TestJourneyAssemblesRedirectedFlow drives the canonical first-packet
// detour and asserts journey assembly joins the per-node spans into one
// complete causal story: ingress → redirect → authority resolution →
// delivered, with the cache install riding the same trace.
func TestJourneyAssemblesRedirectedFlow(t *testing.T) {
	c := newForensicsCluster(t)
	h := httpHeader(1)

	c.Inject(0, h, 100)
	awaitDelivery(t, c)

	js, stats := c.Journeys(telemetry.JourneyFilter{Flow: flowOf(&h).Hash})
	if stats.Total < 1 {
		t.Fatalf("no journeys assembled: %+v", stats)
	}
	if len(js) != 1 {
		t.Fatalf("want 1 journey for the flow, got %d", len(js))
	}
	j := js[0]
	if !j.Complete || j.Dropped {
		t.Fatalf("journey not complete+delivered: %+v", j)
	}
	if j.Terminal != "delivered" || j.LatencyNS <= 0 {
		t.Fatalf("terminal = %q latency = %d", j.Terminal, j.LatencyNS)
	}
	kinds := make(map[telemetry.EventKind]*telemetry.Event, len(j.Events))
	for i := range j.Events {
		kinds[j.Events[i].Kind] = &j.Events[i]
	}
	ing, ok := kinds[telemetry.EvIngress]
	if !ok || ing.Node != 0 {
		t.Fatalf("missing ingress span at node 0: %+v", j.Events)
	}
	rd, ok := kinds[telemetry.EvRedirect]
	if !ok || rd.Node != 0 || rd.Peer != 2 {
		t.Fatalf("missing redirect span 0 -> 2: %+v", j.Events)
	}
	auth, ok := kinds[telemetry.EvAuthority]
	if !ok || auth.Node != 2 {
		t.Fatalf("missing authority span at node 2: %+v", j.Events)
	}
	v, ok := kinds[telemetry.EvVerdict]
	if !ok || v.Node != 4 || v.Verdict != telemetry.VDelivered {
		t.Fatalf("missing delivered verdict at egress 4: %+v", j.Events)
	}
	// The spans must already be in causal (timestamp) order.
	for i := 1; i < len(j.Events); i++ {
		if j.Events[i-1].TS > j.Events[i].TS {
			t.Fatalf("journey events out of order: %+v", j.Events)
		}
	}
}

// TestJourneySamplingRecordsOnlySampledPackets checks the sampled-mode
// recording discipline: with 1-in-N sampling active, unsampled packets
// must leave no spans (the whole point of sampling is to not pay for
// them), while every sampled packet still assembles completely.
func TestJourneySamplingRecordsOnlySampledPackets(t *testing.T) {
	c := newForensicsCluster(t)
	c.SetTraceSample(1 << 30) // effectively: nothing is sampled
	h := httpHeader(3)
	c.Inject(0, h, 100)
	awaitDelivery(t, c)
	if evs := c.TraceEvents(telemetry.Filter{Flow: flowOf(&h).Hash}); len(evs) != 0 {
		t.Fatalf("unsampled packet left %d spans: %+v", len(evs), evs)
	}
	_, stats := c.Journeys(telemetry.JourneyFilter{})
	if stats.Total != 0 {
		t.Fatalf("journeys assembled without sampled packets: %+v", stats)
	}
}

// TestForensicsEndpointsUnderChurn is the -race exercise for the
// observability surface: concurrent HTTP scrapes of every endpoint while
// tracing and the sampling rate are toggled, traffic flows, and a switch
// dies mid-run. It asserts absence of data races and that every endpoint
// stays 200 throughout; the chaos is the point, not the values.
func TestForensicsEndpointsUnderChurn(t *testing.T) {
	c := newForensicsCluster(t)
	addr := c.TelemetryAddr()
	if addr == "" {
		t.Fatal("telemetry server did not start")
	}

	// Drain deliveries so injectors never block on the channel. The drain
	// goroutine outlives the workers; it is stopped after wg.Wait().
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			case <-c.Deliveries:
			}
		}
	}()
	var wg sync.WaitGroup

	const workers = 3
	errc := make(chan error, workers+2)
	get := func(path string) error {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return nil
	}
	paths := []string{"/metrics", "/vars", "/trace?limit=32", "/journeys", "/convergence", "/health", "/status"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if err := get(paths[(i+w)%len(paths)]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// Toggle the recorder and sampler while the scrapers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rates := []int{0, 1, 64, 1}
		for i := 0; i < 40; i++ {
			c.SetTracing(i%2 == 0)
			c.SetTraceSample(rates[i%len(rates)])
		}
		c.SetTracing(true)
		c.SetTraceSample(1)
	}()
	// Traffic plus a mid-run switch death (node 1 is neither the ingress,
	// the authority, nor an egress of the test policy).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			c.Inject(0, httpHeader(uint32(10+i)), 100)
			if i == 30 {
				c.KillSwitch(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	<-drained
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The surface must still be coherent after the churn.
	if err := get("/health"); err != nil {
		t.Fatal(err)
	}
	if err := get("/journeys"); err != nil {
		t.Fatal(err)
	}
}
