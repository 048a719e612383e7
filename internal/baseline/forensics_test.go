package baseline

import (
	"testing"

	"difane/internal/telemetry"
)

// TestBaselineJourneyPuntStory: the reactive baseline tells its first-packet
// story in the shared span vocabulary — the punt to the controller is a
// redirect (peer = the controller's node), the policy evaluation an
// authority hit, and the microflow install closes the loop — so journey
// assembly reads identically across all three backends.
func TestBaselineJourneyPuntStory(t *testing.T) {
	n := newNet(t, Config{})
	n.SetTracing(true)
	n.SetTraceSample(1)
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.Run(1)

	js, stats := n.Journeys(telemetry.JourneyFilter{})
	if stats.Total != 1 || stats.Complete != 1 {
		t.Fatalf("stats = %+v, want 1 complete journey", stats)
	}
	j := js[0]
	if !j.Complete || j.Dropped || j.Terminal != "delivered" || j.LatencyNS <= 0 {
		t.Fatalf("journey = %+v", j)
	}
	var punt, authority, install, verdict bool
	for _, ev := range j.Events {
		switch ev.Kind {
		case telemetry.EvRedirect:
			punt = ev.Node == 0 && ev.Peer == 2 // controller attaches at node 2
		case telemetry.EvAuthority:
			authority = ev.Node == 2
		case telemetry.EvInstall:
			install = ev.Node == 0 && ev.Table == telemetry.TableCache
		case telemetry.EvVerdict:
			verdict = ev.Node == 4 && ev.Verdict == telemetry.VDelivered
		}
	}
	if !punt || !authority || !install || !verdict {
		t.Fatalf("incomplete punt story (punt %v authority %v install %v verdict %v): %+v",
			punt, authority, install, verdict, j.Events)
	}
}

// TestBaselineSecondPacketJourneyIsCacheHit: once the microflow rule is
// installed, a sampled later packet's journey is just ingress → forward →
// delivered, with no controller involvement.
func TestBaselineSecondPacketJourneyIsCacheHit(t *testing.T) {
	n := newNet(t, Config{})
	n.SetTracing(true)
	n.SetTraceSample(1)
	n.InjectPacket(0, 0, flowKey(1, 80), 100, 0)
	n.InjectPacket(0.5, 0, flowKey(1, 80), 100, 1)
	n.Run(1)

	js, stats := n.Journeys(telemetry.JourneyFilter{})
	if stats.Total != 2 || stats.Complete != 2 {
		t.Fatalf("stats = %+v, want 2 complete journeys", stats)
	}
	// Journeys are ordered by start time; the second is the cache hit.
	second := js[1]
	var forward, redirected bool
	for _, ev := range second.Events {
		switch ev.Kind {
		case telemetry.EvForward:
			forward = ev.Table == telemetry.TableCache
		case telemetry.EvRedirect:
			redirected = true
		}
	}
	if !forward || redirected {
		t.Fatalf("second packet should hit the microflow rule without a punt: %+v", second.Events)
	}
}
