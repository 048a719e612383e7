package subscriber

import (
	"math"
	"reflect"
	"testing"

	"difane/internal/flowspace"
)

func engineFixture(cfg Config, phases []Phase) *Engine {
	s := Setup{Seed: 7}
	return NewEngine(s.Spec(), cfg, phases)
}

func TestEngineDeterministic(t *testing.T) {
	cfg := Config{
		Subscribers: 1 << 16, ArrivalRate: 400, MeanSessionLife: 1,
		PacketRate: 4, MobilityRate: 20, DiurnalAmp: 0.4, Seed: 42,
	}
	phases := DefaultScript(4)
	a := engineFixture(cfg, phases)
	b := engineFixture(cfg, phases)
	for !a.Done() && !b.Done() {
		ta := a.Advance(0.05)
		tb := b.Advance(0.05)
		if !reflect.DeepEqual(ta.Batch, tb.Batch) {
			t.Fatalf("batches diverge at t=%.2f: %d vs %d packets",
				ta.Now, len(ta.Batch), len(tb.Batch))
		}
		if ta.Arrivals != tb.Arrivals || ta.Moves != tb.Moves ||
			ta.Departures != tb.Departures || ta.Active != tb.Active {
			t.Fatalf("session events diverge at t=%.2f", ta.Now)
		}
		if ta.Done {
			break
		}
	}
	if a.TotalPackets() != b.TotalPackets() || a.TotalSessions() != b.TotalSessions() {
		t.Fatalf("cumulative counters diverge: %d/%d packets, %d/%d sessions",
			a.TotalPackets(), b.TotalPackets(), a.TotalSessions(), b.TotalSessions())
	}
	if a.TotalPackets() == 0 || a.TotalSessions() == 0 {
		t.Fatal("engine generated nothing")
	}
}

func TestEnginePhaseScript(t *testing.T) {
	e := engineFixture(Config{ArrivalRate: 100, Seed: 1}, []Phase{
		Steady(1), ChurnSpike(1, 3), FlashCrowd(1, 2, 8),
	})
	seen := map[string]bool{}
	changes := 0
	for !e.Done() {
		tick := e.Advance(0.1)
		if tick.Done {
			break
		}
		seen[tick.Phase] = true
		if tick.PhaseChanged {
			changes++
		}
	}
	for _, want := range []string{"steady", "churn-spike", "flash-crowd"} {
		if !seen[want] {
			t.Errorf("phase %q never ran (saw %v)", want, seen)
		}
	}
	if changes < 2 {
		t.Errorf("expected ≥2 phase transitions, saw %d", changes)
	}
	if got := e.Now(); math.Abs(got-3) > 0.2 {
		t.Errorf("script of 3 modeled seconds ended at t=%.2f", got)
	}
}

func TestEngineZipfSkew(t *testing.T) {
	// With alpha well above 1, a small head of subscribers should carry a
	// disproportionate share of sessions.
	e := engineFixture(Config{
		Subscribers: 1 << 20, ArrivalRate: 5000,
		MeanSessionLife: 0.1, Seed: 3,
	}, []Phase{Steady(4)})
	counts := map[uint64]int{}
	total := 0
	for !e.Done() {
		tick := e.Advance(0.05)
		if tick.Done {
			break
		}
		for _, p := range tick.Batch {
			counts[hashKey(p.Key)]++
			total++
		}
	}
	if total < 1000 {
		t.Fatalf("too few packets to measure skew: %d", total)
	}
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	// Under a uniform draw over 2^20 subscribers the busiest flow would
	// see a handful of packets; Zipf 1.3 concentrates a large fraction on
	// the head.
	if frac := float64(top) / float64(total); frac < 0.05 {
		t.Errorf("no popularity skew: busiest flow carried %.2f%% of %d packets",
			100*frac, total)
	}
}

func hashKey(k flowspace.Key) uint64 {
	h := uint64(0)
	for _, v := range k {
		h = splitmix64(h ^ v)
	}
	return h
}

func TestEngineMobilityMovesIngress(t *testing.T) {
	e := engineFixture(Config{
		ArrivalRate: 200, MeanSessionLife: 5, MobilityRate: 50, Seed: 9,
	}, []Phase{Steady(4)})
	ingByKey := map[uint64]map[uint32]bool{}
	for !e.Done() {
		tick := e.Advance(0.05)
		if tick.Done {
			break
		}
		for _, p := range tick.Batch {
			k := hashKey(p.Key)
			if ingByKey[k] == nil {
				ingByKey[k] = map[uint32]bool{}
			}
			ingByKey[k][p.Ingress] = true
		}
	}
	if e.TotalMoves() == 0 {
		t.Fatal("no mobility events with MobilityRate=50")
	}
	moved := 0
	for _, set := range ingByKey {
		if len(set) > 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no flow was ever seen from two ingresses despite moves")
	}
}

func TestEngineFlashCrowdConcentration(t *testing.T) {
	hot := 8
	e := engineFixture(Config{ArrivalRate: 2000, Seed: 5},
		[]Phase{FlashCrowd(2, 1, hot)})
	region := e.spec.Policy[e.flashRule].Match // the region flash crowds converge on
	keys := map[uint64]bool{}
	n := 0
	for !e.Done() {
		tick := e.Advance(0.05)
		if tick.Done {
			break
		}
		for _, p := range tick.Batch {
			if !region.Matches(p.Key) {
				t.Fatalf("flash-crowd packet outside the hot region: %v", p.Key)
			}
			keys[hashKey(p.Key)] = true
			n++
		}
	}
	if n < 100 {
		t.Fatalf("flash crowd too small to judge: %d packets", n)
	}
	if len(keys) > hot {
		t.Errorf("flash crowd used %d distinct keys, want ≤ %d", len(keys), hot)
	}
}

func TestEngineScanNeverRepeats(t *testing.T) {
	e := engineFixture(Config{ArrivalRate: 1000, Seed: 11},
		[]Phase{Scan(2, 1)})
	arrivals := map[uint64]bool{}
	dups := 0
	for !e.Done() {
		tick := e.Advance(0.05)
		if tick.Done {
			break
		}
		for _, p := range tick.Batch {
			if p.Seq != 0 {
				continue // only first packets carry fresh scan keys
			}
			k := hashKey(p.Key)
			if arrivals[k] {
				dups++
			}
			arrivals[k] = true
		}
	}
	if len(arrivals) < 100 {
		t.Fatalf("scan produced too few sessions: %d", len(arrivals))
	}
	// splitmix64 collisions across a few thousand draws are ~0; any
	// repeats mean the scan is reusing keys and no longer thrashes.
	if dups > 0 {
		t.Errorf("scan repeated %d of %d keys", dups, len(arrivals))
	}
}

func TestEngineMaxActiveSuppression(t *testing.T) {
	e := engineFixture(Config{
		ArrivalRate: 2000, MeanSessionLife: 100, MaxActive: 50, Seed: 13,
	}, []Phase{Steady(1)})
	for !e.Done() {
		if tick := e.Advance(0.05); tick.Done {
			break
		}
	}
	if e.Active() > 50 {
		t.Errorf("active %d exceeds MaxActive 50", e.Active())
	}
	if e.TotalSuppressed() == 0 {
		t.Error("expected suppressed arrivals at 2000/s against MaxActive=50")
	}
}

func TestEngineDiurnalSwing(t *testing.T) {
	// One full diurnal cycle with a strong amplitude: the peak half-period
	// should admit measurably more sessions than the trough half-period.
	e := engineFixture(Config{
		ArrivalRate: 500, MeanSessionLife: 0.2,
		DiurnalAmp: 0.9, DiurnalPeriod: 4, Seed: 17,
	}, []Phase{Steady(4)})
	peak, trough := 0, 0
	for !e.Done() {
		tick := e.Advance(0.05)
		if tick.Done {
			break
		}
		if tick.Now <= 2 {
			peak += tick.Arrivals
		} else {
			trough += tick.Arrivals
		}
	}
	if peak <= trough {
		t.Errorf("diurnal peak half (%d arrivals) not above trough half (%d)",
			peak, trough)
	}
}
