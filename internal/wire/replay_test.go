package wire_test

import (
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/oracle"
	"difane/internal/packet"
	"difane/internal/scencheck"
	"difane/internal/telemetry"
	"difane/internal/wire"
)

// TestTraceVerdictsMatchOracle replays generated scenarios (packets only —
// no faults, no updates) through a traced wire cluster and cross-checks
// the flight recorder's terminal verdict events against the reference
// oracle: every injected packet must surface exactly one verdict event,
// and its kind, egress, and winning rule must be what the policy says.
// This pins the *event stream* itself — the differential harness already
// pins the counters — so an operator reading `difanectl trace` is reading
// the truth.
func TestTraceVerdictsMatchOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		sc := scencheck.Generate(seed, scencheck.Config{Packets: 24})
		d, err := wire.NewDeployment(wire.ClusterConfig{
			Switches:      sc.Switches,
			Authorities:   sc.Authorities,
			Policy:        sc.Policy,
			Strategy:      sc.Strategy,
			CacheCapacity: 8,
			BFD:           wire.SlackBFD,
			Retry: wire.RetryPolicy{
				MaxAttempts: 4,
				BaseDelay:   time.Millisecond,
				MaxDelay:    5 * time.Millisecond,
			},
			Partition: core.PartitionConfig{MaxRulesPerPartition: 4},
			Telemetry: wire.TelemetryConfig{Tracing: true},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// The flow tuple carries every field the generated policies match
		// on (IPs, ports, proto), so one expected verdict per flow hash.
		want := map[uint64]oracle.Verdict{}
		injected := map[uint64]int{}
		total, seq := 0, uint64(0)
		for _, st := range sc.Steps {
			if st.Kind != scencheck.StepPacket {
				continue
			}
			h := packet.HeaderFromKey(st.Key)
			hash := telemetry.HashFlow(h.IPSrc, h.IPDst, h.TPSrc, h.TPDst, h.IPProto)
			want[hash] = oracle.Evaluate(sc.Policy, st.Key)
			injected[hash]++
			total++
			d.InjectPacket(0, st.Ingress, st.Key, 100, seq)
			seq++
			d.Run(5.0)
		}

		// Run waits for the packet counters; the verdict event publish is
		// adjacent but not fenced to them, so allow the tail to settle.
		verdictOnly := telemetry.Filter{Kinds: []telemetry.EventKind{telemetry.EvVerdict}}
		var evs []telemetry.Event
		deadline := time.Now().Add(5 * time.Second)
		for {
			evs = d.C.TraceEvents(verdictOnly)
			if len(evs) >= total || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if len(evs) != total {
			t.Fatalf("seed %d: %d packets injected, %d verdict events recorded", seed, total, len(evs))
		}

		got := map[uint64]int{}
		for _, ev := range evs {
			w, ok := want[ev.Flow.Hash]
			if !ok {
				t.Fatalf("seed %d: verdict for unknown flow: %+v", seed, ev)
			}
			got[ev.Flow.Hash]++
			switch w.Kind {
			case oracle.Deliver:
				if ev.Verdict != telemetry.VDelivered || ev.Node != w.Egress {
					t.Errorf("seed %d: oracle says %v, trace says %s at sw%d",
						seed, w, telemetry.VerdictName(ev.Verdict), ev.Node)
				}
			case oracle.Drop:
				// Cached cover rules carry generated IDs (OriginOf maps them
				// back), so only the verdict kind and that *some* rule won
				// are stable here.
				if ev.Verdict != telemetry.VDropPolicy || ev.RuleID == 0 {
					t.Errorf("seed %d: oracle says %v, trace says %s via rule %d",
						seed, w, telemetry.VerdictName(ev.Verdict), ev.RuleID)
				}
			case oracle.Hole:
				if ev.Verdict != telemetry.VDropHole {
					t.Errorf("seed %d: oracle says %v, trace says %s",
						seed, w, telemetry.VerdictName(ev.Verdict))
				}
			}
		}
		for hash, n := range injected {
			if got[hash] != n {
				t.Errorf("seed %d: flow %x: %d packets injected, %d verdicts", seed, hash, n, got[hash])
			}
		}
		if err := d.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
}
