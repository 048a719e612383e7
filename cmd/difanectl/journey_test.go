package main

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"difane/internal/baseline"
	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/packet"
	"difane/internal/telemetry"
	"difane/internal/topo"
	"difane/internal/wire"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	return out
}

func journeyPolicy() []flowspace.Rule {
	return []flowspace.Rule{
		{ID: 1, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}},
		{ID: 2, Priority: 0, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActDrop}},
	}
}

func journeyKey() flowspace.Key {
	var k flowspace.Key
	k[flowspace.FIPSrc] = 1
	k[flowspace.FTPDst] = 80
	return k
}

// serveRecorder exposes a backend's flight recorder over the same mux the
// wire cluster serves, so `difanectl journey` reads sim and baseline
// deployments exactly like a live cluster.
func serveRecorder(t *testing.T, rec *telemetry.Recorder) string {
	t.Helper()
	srv := httptest.NewServer(telemetry.Handler(telemetry.NewRegistry(), rec, nil))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// checkJourneyOutput asserts the rendered journey tells the redirected
// first-packet story: a completeness header, a delivered trace line, and
// the redirect → authority spans in the body.
func checkJourneyOutput(t *testing.T, backend, out string) {
	t.Helper()
	for _, want := range []string{
		"complete", "trace ", "delivered in", "redirect", "authority", "ingress",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("%s: journey output missing %q:\n%s", backend, want, out)
		}
	}
}

// TestJourneyCommandRendersAllBackends drives the same redirected flow
// through all three backends and asserts `difanectl journey` renders the
// same end-to-end story from each — the cross-backend schema acceptance
// check.
func TestJourneyCommandRendersAllBackends(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		n, err := core.NewNetwork(topo.Linear(5, 0.001), []uint32{2}, journeyPolicy(),
			core.NetworkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		n.SetTracing(true)
		n.SetTraceSample(1)
		n.InjectPacket(0, 0, journeyKey(), 100, 0)
		n.Run(1)
		addr := serveRecorder(t, n.Recorder())
		out := captureStdout(t, func() {
			if code := runJourney([]string{"-addr", addr}); code != 0 {
				t.Errorf("journey exited %d", code)
			}
		})
		checkJourneyOutput(t, "sim", out)
	})

	t.Run("baseline", func(t *testing.T) {
		n, err := baseline.NewNetwork(topo.Linear(5, 0.001), journeyPolicy(),
			baseline.Config{ControllerNode: 2})
		if err != nil {
			t.Fatal(err)
		}
		n.SetTracing(true)
		n.SetTraceSample(1)
		n.InjectPacket(0, 0, journeyKey(), 100, 0)
		n.Run(1)
		addr := serveRecorder(t, n.Recorder())
		out := captureStdout(t, func() {
			if code := runJourney([]string{"-addr", addr}); code != 0 {
				t.Errorf("journey exited %d", code)
			}
		})
		checkJourneyOutput(t, "baseline", out)
	})

	t.Run("wire", func(t *testing.T) {
		c, err := wire.NewCluster(wire.ClusterConfig{
			Switches:    []uint32{0, 1, 2, 3, 4},
			Authorities: []uint32{2},
			Policy:      journeyPolicy(),
			Telemetry: wire.TelemetryConfig{
				Addr: "127.0.0.1:0", Tracing: true, TraceSample: 1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		h := packet.Header{
			EthType: packet.EthTypeIPv4, IPProto: packet.ProtoTCP,
			IPSrc: 1, IPDst: packet.IP4(10, 0, 0, 1), TPDst: 80,
		}
		c.Inject(0, h, 100)
		select {
		case <-c.Deliveries:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for delivery")
		}
		out := captureStdout(t, func() {
			if code := runJourney([]string{"-addr", c.TelemetryAddr()}); code != 0 {
				t.Errorf("journey exited %d", code)
			}
		})
		checkJourneyOutput(t, "wire", out)
	})
}
