package subscriber

import (
	"encoding/json"
	"testing"
	"time"
)

// soakScale shrinks the wire soak under the race detector so the package
// stays inside go test's timeout; CI's soak-smoke job runs the full size
// through cmd/difane-soak.
func soakScale() (arrivalRate float64, modeled float64) {
	if raceEnabled {
		return 300, 4
	}
	return 1500, 8
}

func TestSoakSmoke(t *testing.T) {
	rate, modeled := soakScale()
	setup := Setup{Switches: 8, Rules: 64, CacheCapacity: 256, Seed: 21}
	d, spec, err := setup.Deploy()
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer d.Close()

	rep, err := RunSoak(d, spec, SoakConfig{
		Engine: Config{
			Subscribers: 1 << 18, ArrivalRate: rate, MeanSessionLife: 1,
			PacketRate: 2, MobilityRate: rate / 20, DiurnalAmp: 0.3, Seed: 21,
		},
		Phases:      SmokeScript(modeled),
		SampleEvery: 512,
		WallBudget:  2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	t.Logf("\n%s", rep.Render())

	if rep.Failed() {
		t.Fatalf("soak failed: %d divergences, accounting=%q",
			len(rep.Divergences), rep.AccountingError)
	}
	if rep.Sessions == 0 || rep.Packets == 0 {
		t.Fatal("soak modeled nothing")
	}
	if rep.Probes == 0 {
		t.Error("sampling checker never probed a verdict")
	}
	if rep.Moves == 0 {
		t.Error("no mobility events in the soak")
	}
	if len(rep.Series) == 0 {
		t.Error("no telemetry series points recorded")
	}
	phases := map[string]bool{}
	for _, p := range rep.Phases {
		phases[p.Phase] = true
	}
	for _, want := range []string{"steady", "churn-spike", "flash-crowd"} {
		if !phases[want] {
			t.Errorf("phase %q missing from the report (got %v)", want, phases)
		}
	}
	// The report must round-trip as JSON — the CI artifact is its
	// marshaled form.
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report not JSON-marshalable: %v", err)
	}
}

func TestSoakRegistersTelemetry(t *testing.T) {
	setup := Setup{Switches: 4, Rules: 32, Seed: 5}
	d, spec, err := setup.Deploy()
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer d.Close()

	rep, err := RunSoak(d, spec, SoakConfig{
		Engine: Config{ArrivalRate: 200, MeanSessionLife: 0.5, Seed: 5},
		Phases: []Phase{Steady(2)},
		// Sample aggressively so probe counters move.
		SampleEvery: 64,
	})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("soak failed:\n%s", rep.Render())
	}

	got := map[string]float64{}
	for _, m := range d.C.Registry().Snapshot() {
		if len(m.Points) == 1 {
			got[m.Name] = m.Points[0].Value
		}
	}
	for _, name := range []string{
		"difane_soak_phase", "difane_soak_active_sessions",
		"difane_soak_sessions_total", "difane_soak_probes_total",
		"difane_soak_divergences_total", "difane_soak_miss_rate",
		"difane_soak_tcam_entries", "difane_soak_redirects_per_sec",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
	if got["difane_soak_sessions_total"] == 0 {
		t.Error("difane_soak_sessions_total stayed zero")
	}
	if got["difane_soak_probes_total"] != float64(rep.Probes) {
		t.Errorf("probes metric %v != report %d",
			got["difane_soak_probes_total"], rep.Probes)
	}
	if got["difane_soak_divergences_total"] != 0 {
		t.Errorf("divergences metric %v, want 0", got["difane_soak_divergences_total"])
	}
}

// SampleEvery 0 turns the verdict sampler off: however many packets the
// soak generates, it sends no probe.
func TestSoakSampleZeroSendsNoProbes(t *testing.T) {
	setup := Setup{Switches: 4, Rules: 32, Seed: 9}
	d, spec, err := setup.Deploy()
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer d.Close()

	rep, err := RunSoak(d, spec, SoakConfig{
		Engine: Config{ArrivalRate: 1000, MeanSessionLife: 1, Seed: 9},
		Phases: []Phase{Steady(3)},
	})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("soak failed:\n%s", rep.Render())
	}
	if rep.Packets < 4096 {
		t.Fatalf("only %d packets: too few to tell sampling off from a 1-in-4096 sampler", rep.Packets)
	}
	if rep.Probes != 0 || rep.ProbesSkipped != 0 {
		t.Fatalf("sampling off, yet %d probes sent and %d skipped over %d packets",
			rep.Probes, rep.ProbesSkipped, rep.Packets)
	}
}

func TestSoakWallBudgetStopsEarly(t *testing.T) {
	setup := Setup{Switches: 4, Rules: 32, Seed: 8}
	d, spec, err := setup.Deploy()
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer d.Close()

	rep, err := RunSoak(d, spec, SoakConfig{
		Engine: Config{ArrivalRate: 500, MeanSessionLife: 1, Seed: 8},
		// An hour of modeled time against a one-second budget.
		Phases:     []Phase{Steady(3600)},
		WallBudget: time.Second,
	})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if !rep.BudgetExhausted {
		t.Error("expected BudgetExhausted on a 1s budget vs 3600s script")
	}
	if rep.Failed() {
		t.Fatalf("budget-bounded soak must still pass its gates:\n%s", rep.Render())
	}
}
