package telemetry

import (
	"strings"
	"testing"
)

// fakeCluster is a registry whose difane_* series the tests mutate
// directly, standing in for a live deployment between watchdog ticks.
type fakeCluster struct {
	reg *Registry

	cacheHits, authorityHits, partitionHits float64
	delivered, evictions, bfdTransitions    float64
	epochActiveSince                        float64
	authorityBySwitch                       map[string]float64
}

func newFakeCluster() *fakeCluster {
	f := &fakeCluster{reg: NewRegistry(), authorityBySwitch: map[string]float64{}}
	counter := func(name string, v *float64) {
		f.reg.RegisterFunc(name, "", TypeCounter, func() float64 { return *v })
	}
	counter("difane_switch_cache_hits_total", &f.cacheHits)
	counter("difane_switch_partition_hits_total", &f.partitionHits)
	counter("difane_delivered_total", &f.delivered)
	counter("difane_switch_cache_evictions_total", &f.evictions)
	counter("difane_bfd_transitions_total", &f.bfdTransitions)
	f.reg.RegisterFunc("difane_epoch_active_since_ns", "", TypeGauge,
		func() float64 { return f.epochActiveSince })
	// Authority hits are per-switch labeled points, like the real schema —
	// the imbalance rule diffs them by label. The unlabeled sum feeds the
	// miss-rate rule via Delta's point summation.
	f.reg.Register("difane_switch_authority_hits_total", "", TypeCounter, func() []Point {
		if len(f.authorityBySwitch) == 0 {
			return []Point{{Value: f.authorityHits}}
		}
		pts := make([]Point, 0, len(f.authorityBySwitch))
		for sw, v := range f.authorityBySwitch {
			pts = append(pts, Point{Labels: []Label{{Key: "switch", Value: sw}}, Value: v})
		}
		return pts
	})
	return f
}

func statusOf(t *testing.T, st []RuleStatus, name string) RuleStatus {
	t.Helper()
	for _, s := range st {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("rule %q not in %+v", name, st)
	return RuleStatus{}
}

func TestWatchdogFirstEvalIsBaselineOnly(t *testing.T) {
	f := newFakeCluster()
	w := NewWatchdog(f.reg, DefaultHealthRules(HealthConfig{}))
	st := w.EvalOnce(1_000_000_000)
	for _, s := range st {
		if s.Firing {
			t.Fatalf("rule %s fired on the baseline pass", s.Name)
		}
	}
	sum := w.Summary()
	if sum.Evals != 1 || sum.Firing != 0 || sum.Critical != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestMissRateBurnFiresAndClears(t *testing.T) {
	f := newFakeCluster()
	w := NewWatchdog(f.reg, DefaultHealthRules(HealthConfig{}))
	w.EvalOnce(1e9)

	// Window 1: redirects dominate (900 of 1000 classifications).
	f.cacheHits += 100
	f.partitionHits += 900
	st := w.EvalOnce(2e9)
	s := statusOf(t, st, "miss-rate-burn")
	if !s.Firing || s.Value < 0.89 || s.Value > 0.91 {
		t.Fatalf("miss-rate-burn = %+v, want firing at ~0.9", s)
	}
	if s.SinceNS != 2e9 {
		t.Fatalf("SinceNS = %d, want the firing eval's timestamp", s.SinceNS)
	}
	if s.Severity != SevWarn {
		t.Fatalf("severity = %q", s.Severity)
	}

	// Window 2: the cache absorbed the working set again.
	f.cacheHits += 1000
	f.partitionHits += 10
	s = statusOf(t, w.EvalOnce(3e9), "miss-rate-burn")
	if s.Firing || s.SinceNS != 0 {
		t.Fatalf("rule must clear on a healthy window: %+v", s)
	}

	// Window 3: redirects dominate again, and the authority switches count
	// every one they answer. Those hits are the misses, not the cache
	// absorbing them: the rule must fire on the 900 of 1000 still.
	f.cacheHits += 100
	f.partitionHits += 900
	f.authorityHits += 900
	if s = statusOf(t, w.EvalOnce(4e9), "miss-rate-burn"); !s.Firing || s.Value < 0.89 || s.Value > 0.91 {
		t.Fatalf("miss-rate-burn = %+v with the answered redirects counted, want firing at ~0.9", s)
	}
}

func TestMissRateFloorKeepsColdStartQuiet(t *testing.T) {
	f := newFakeCluster()
	w := NewWatchdog(f.reg, DefaultHealthRules(HealthConfig{}))
	w.EvalOnce(1e9)
	// 40 classifications, all redirects — under the 500 floor.
	f.partitionHits += 40
	if s := statusOf(t, w.EvalOnce(2e9), "miss-rate-burn"); s.Firing {
		t.Fatalf("fired below the classification floor: %+v", s)
	}
}

func TestRedirectImbalanceRule(t *testing.T) {
	f := newFakeCluster()
	for _, sw := range []string{"0", "1", "2", "3", "4"} {
		f.authorityBySwitch[sw] = 0
	}
	w := NewWatchdog(f.reg, DefaultHealthRules(HealthConfig{}))
	w.EvalOnce(1e9)

	// One authority takes 900 of 1000 redirects while four others take 25
	// each: 4.5x the active mean, above the 4x max.
	f.authorityBySwitch["2"] += 900
	for _, sw := range []string{"0", "1", "3", "4"} {
		f.authorityBySwitch[sw] += 25
	}
	s := statusOf(t, w.EvalOnce(2e9), "redirect-imbalance")
	if !s.Firing || s.Value != 4.5 {
		t.Fatalf("imbalance = %+v, want firing at 4.5x mean", s)
	}
	if !strings.Contains(s.Detail, "switch 2") {
		t.Fatalf("detail should name the hot switch: %q", s.Detail)
	}

	// Balanced load clears it.
	for sw := range f.authorityBySwitch {
		f.authorityBySwitch[sw] += 200
	}
	if s := statusOf(t, w.EvalOnce(3e9), "redirect-imbalance"); s.Firing {
		t.Fatalf("balanced window still firing: %+v", s)
	}
}

// TestRedirectImbalanceIgnoresStructuralZeros: every switch exports the
// authority-hits series, but only authorities ever increment it. The mean
// must span switches that served redirects, or a balanced 2-of-8
// authority cluster would idle at 4x and fire forever.
func TestRedirectImbalanceIgnoresStructuralZeros(t *testing.T) {
	f := newFakeCluster()
	for _, sw := range []string{"0", "1", "2", "3", "4", "5", "6", "7"} {
		f.authorityBySwitch[sw] = 0
	}
	w := NewWatchdog(f.reg, DefaultHealthRules(HealthConfig{}))
	w.EvalOnce(1e9)

	// Two authorities split the load almost evenly; six switches report 0.
	f.authorityBySwitch["2"] += 520
	f.authorityBySwitch["6"] += 480
	if s := statusOf(t, w.EvalOnce(2e9), "redirect-imbalance"); s.Firing {
		t.Fatalf("balanced 2-authority cluster fired: %+v", s)
	}

	// A single active switch is not comparable to anything: no verdict.
	f.authorityBySwitch["2"] += 1000
	if s := statusOf(t, w.EvalOnce(3e9), "redirect-imbalance"); s.Firing {
		t.Fatalf("lone active authority fired: %+v", s)
	}
}

func TestTcamPressureRule(t *testing.T) {
	f := newFakeCluster()
	w := NewWatchdog(f.reg, DefaultHealthRules(HealthConfig{}))
	w.EvalOnce(1e9)
	// 0.8 evictions per delivery: the cache is thrashing.
	f.delivered += 1000
	f.evictions += 800
	s := statusOf(t, w.EvalOnce(2e9), "tcam-pressure")
	if !s.Firing || s.Value != 0.8 {
		t.Fatalf("tcam-pressure = %+v", s)
	}
}

func TestBFDFlapIsCritical(t *testing.T) {
	f := newFakeCluster()
	w := NewWatchdog(f.reg, DefaultHealthRules(HealthConfig{}))
	w.EvalOnce(1e9)
	// 20 transitions over a 2-second window: 10/s against a 5/s budget.
	f.bfdTransitions += 20
	s := statusOf(t, w.EvalOnce(3e9), "bfd-flap")
	if !s.Firing || s.Value != 10 || s.Severity != SevCritical {
		t.Fatalf("bfd-flap = %+v", s)
	}
	sum := w.Summary()
	if sum.Firing != 1 || sum.Critical != 1 {
		t.Fatalf("summary = %+v, want 1 critical", sum)
	}
}

func TestConvergenceStallIsCritical(t *testing.T) {
	f := newFakeCluster()
	w := NewWatchdog(f.reg, DefaultHealthRules(HealthConfig{}))
	w.EvalOnce(1e9)
	// A policy update opened at t=1ns and never quiesced; by t=15s the
	// 10s budget is blown.
	f.epochActiveSince = 1
	s := statusOf(t, w.EvalOnce(15e9), "convergence-stall")
	if !s.Firing || s.Severity != SevCritical {
		t.Fatalf("convergence-stall = %+v", s)
	}
	// Quiescence (gauge back to 0) clears it.
	f.epochActiveSince = 0
	if s := statusOf(t, w.EvalOnce(16e9), "convergence-stall"); s.Firing {
		t.Fatalf("stall rule must clear at quiescence: %+v", s)
	}
}

func TestWatchdogViewAndMetrics(t *testing.T) {
	f := newFakeCluster()
	w := NewWatchdog(f.reg, DefaultHealthRules(HealthConfig{}))
	w.RegisterMetrics(f.reg)
	w.EvalOnce(1e9)
	f.bfdTransitions += 100
	w.EvalOnce(2e9)

	v := w.View(3e9)
	if v.Healthy || v.Evals != 2 {
		t.Fatalf("view = %+v, want unhealthy after the flap", v)
	}

	var b strings.Builder
	if err := f.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`difane_health_firing{rule="bfd-flap",severity="critical"} 1`,
		`difane_health_firing{rule="tcam-pressure",severity="warn"} 0`,
		"difane_health_evals_total 2",
		"difane_health_firing_count 1",
		"difane_health_critical_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in scrape:\n%s", want, out)
		}
	}
}

// TestWatchdogNeverCollectsSummaries pins the watchdog's scrape to counters
// and gauges: no HealthView accessor can read a summary, so a tick that
// invoked a summary's collector would pay for it once a second for nothing.
func TestWatchdogNeverCollectsSummaries(t *testing.T) {
	f := newFakeCluster()
	collected := 0
	f.reg.RegisterSummary("difane_first_packet_delay_seconds", "", func() SummaryView {
		collected++
		return SummaryView{Count: 1, Sum: 1, Quantiles: [][2]float64{{0.5, 1}}}
	})
	w := NewWatchdog(f.reg, DefaultHealthRules(HealthConfig{}))
	w.EvalOnce(1e9)
	f.delivered, f.cacheHits = 1000, 1000
	w.EvalOnce(2e9)
	if collected != 0 {
		t.Fatalf("EvalOnce invoked the summary collector %d times", collected)
	}
	if f.reg.Snapshot(); collected != 1 {
		t.Fatalf("a full Snapshot must still collect summaries (collected=%d)", collected)
	}
}
