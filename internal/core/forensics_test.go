package core

import (
	"testing"

	"difane/internal/telemetry"
)

// TestSimJourneyRedirectedFlow mirrors the wire-mode journey test in the
// simulator: a first packet's authority detour must assemble into one
// complete journey — ingress → redirect → authority → delivered — with
// virtual-time timestamps.
func TestSimJourneyRedirectedFlow(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	n.SetTracing(true)
	n.SetTraceSample(1)
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.Run(1)

	js, stats := n.Journeys(telemetry.JourneyFilter{})
	if stats.Total != 1 || stats.Complete != 1 {
		t.Fatalf("stats = %+v, want 1 complete journey", stats)
	}
	j := js[0]
	if !j.Complete || j.Dropped || j.Terminal != "delivered" {
		t.Fatalf("journey = %+v", j)
	}
	if j.LatencyNS <= 0 {
		t.Fatalf("delivery latency = %d, want the verdict's virtual latency", j.LatencyNS)
	}
	var sawIngress, sawRedirect, sawAuthority, sawVerdict bool
	for _, ev := range j.Events {
		switch ev.Kind {
		case telemetry.EvIngress:
			sawIngress = ev.Node == 0
		case telemetry.EvRedirect:
			sawRedirect = ev.Node == 0 && ev.Peer == 2
		case telemetry.EvAuthority:
			sawAuthority = ev.Node == 2
		case telemetry.EvVerdict:
			sawVerdict = ev.Node == 4 && ev.Verdict == telemetry.VDelivered
		}
	}
	if !sawIngress || !sawRedirect || !sawAuthority || !sawVerdict {
		t.Fatalf("incomplete story (ingress %v redirect %v authority %v verdict %v): %+v",
			sawIngress, sawRedirect, sawAuthority, sawVerdict, j.Events)
	}
}

// TestSimSamplingOffLeavesNoSpans: with the recorder on but sampling off,
// per-packet spans must not record (only trace-stamped packets do once a
// sampler exists — and rate 0 stamps nothing).
func TestSimSamplingOffLeavesNoSpans(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	n.SetTracing(true)
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.Run(1)
	if _, stats := n.Journeys(telemetry.JourneyFilter{}); stats.Total != 0 {
		t.Fatalf("journeys assembled with sampling off: %+v", stats)
	}
}

// TestPolicyUpdateConvergenceTimeline is the acceptance check for epoch
// convergence timelines: a consistent policy update must produce a
// non-empty timeline whose quiescence timestamp is the simulator's
// accounting-identity quiesce point (the drained event queue at the end
// of Run), with the update's installs and withdrawals attributed to it.
func TestPolicyUpdateConvergenceTimeline(t *testing.T) {
	n, c := consistentNet(t)
	switchAt, cleanupAt, err := c.UpdatePolicyConsistent(denyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	// Traffic on both sides of the switch point keeps the window honest.
	n.InjectPacket(switchAt-0.05, 0, flowKey(1, 80), 100, 0)
	n.InjectPacket(switchAt+0.05, 0, flowKey(2, 80), 100, 0)
	n.Run(cleanupAt + 1)

	tl := n.Convergence().Timelines()
	if len(tl) != 1 {
		t.Fatalf("got %d timelines, want 1 for the update", len(tl))
	}
	got := tl[0]
	if !got.Converged {
		t.Fatalf("update never quiesced: %+v", got)
	}
	if got.Installs == 0 || got.Withdraws == 0 {
		t.Fatalf("make-before-break must install then withdraw: %+v", got)
	}
	// The window opens at the first fenced FlowMod (phase 1, before the
	// switch point) and closes exactly at the drained-queue quiesce stamp.
	if got.FirstModTS <= 0 || float64(got.FirstModTS)/1e9 >= switchAt {
		t.Fatalf("FirstModTS = %d, want within (0, switchAt=%v)", got.FirstModTS, switchAt)
	}
	if got.QuiesceTS != n.Now() {
		t.Fatalf("QuiesceTS = %d, want the quiesce point %d", got.QuiesceTS, n.Now())
	}
	if got.DurationNS != got.QuiesceTS-got.FirstModTS {
		t.Fatalf("DurationNS = %d, want QuiesceTS-FirstModTS = %d",
			got.DurationNS, got.QuiesceTS-got.FirstModTS)
	}
	if since := n.Convergence().ActiveSinceNS(); since != 0 {
		t.Fatalf("tracker still reports an active update at %d", since)
	}
	v := n.Convergence().View(n.Now())
	if v.Updates != 1 || v.Converged != 1 {
		t.Fatalf("view = %+v", v)
	}
}

// TestSimWatchdogEvalOnce drives the watchdog at virtual instants: healthy
// steady-state traffic must not fire any rule.
func TestSimWatchdogEvalOnce(t *testing.T) {
	n := testNet(t, NetworkConfig{})
	w := n.Watchdog()
	w.EvalOnce(n.Now())
	for i := 0; i < 600; i++ {
		seq := uint64(i) % 3
		n.InjectPacket(float64(i)*0.001, 0, flowKey(uint32(i%8), 80), 100, seq)
	}
	n.Run(2)
	st := w.EvalOnce(n.Now())
	for _, s := range st {
		if s.Firing {
			t.Fatalf("rule %s fired on healthy traffic: %+v", s.Name, s)
		}
	}
	if sum := w.Summary(); sum.Evals != 2 || sum.Firing != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}
