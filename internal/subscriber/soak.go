package subscriber

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/oracle"
	"difane/internal/scencheck"
	"difane/internal/telemetry"
	"difane/internal/wire"
	"difane/internal/workload"
)

// SoakConfig tunes a soak run on top of an Engine.
type SoakConfig struct {
	// Engine tunes the subscriber session model.
	Engine Config
	// Phases is the soak script (default: DefaultScript over 30 modeled
	// seconds).
	Phases []Phase
	// SampleEvery checks roughly one packet verdict per this many
	// generated packets against the oracle (0 disables sampling).
	// Full replay cannot scale to millions of sessions; the sampler
	// quiesces the deployment, re-injects the sampled packet as a probe,
	// and diffs its terminal verdict against oracle.Evaluate.
	SampleEvery int
	// WallBudget stops the soak early when the real-time budget is spent
	// (0 = run the script to completion). The phases completed so far
	// still gate; an exhausted budget is reported, not failed.
	WallBudget time.Duration
	// TraceSample, when >0, turns on the flight recorder with 1-in-N
	// per-packet trace sampling for the run, and the report gains journey
	// assembly stats (how many sampled packets told a complete end-to-end
	// story).
	TraceSample int
	// JourneyGate, when >0, fails the report if journey completeness —
	// complete journeys over journeys with a fair chance to complete —
	// lands below it (e.g. 0.99). Only meaningful with TraceSample.
	JourneyGate float64
	// Log, when set, receives per-phase progress lines as the script runs
	// (difane-soak points it at stdout).
	Log func(format string, args ...any)
}

// The soak's fixed pacing. A tick is one modeled step; ticks run flat
// out, because the soak is throughput-bound, not wall-clock paced.
const (
	tickDt         = 0.05 // modeled seconds per engine tick
	seriesInterval = 1.0  // modeled seconds between telemetry series points
	quiesceTimeout = 10.0 // real seconds each drain wait is bounded by
)

func (c SoakConfig) withDefaults() SoakConfig {
	if len(c.Phases) == 0 {
		c.Phases = DefaultScript(30)
	}
	return c
}

// SeriesPoint is one telemetry sample: rates are over the wall-clock
// window since the previous point, gauges are scraped from the cluster's
// metric registry at the sample instant.
type SeriesPoint struct {
	// T is the modeled time; Wall the real seconds since the soak began.
	T    float64 `json:"t"`
	Wall float64 `json:"wall"`
	// Phase names the script phase the sample fell in.
	Phase string `json:"phase"`
	// PktsPerSec is the sustained injection rate over the window.
	PktsPerSec float64 `json:"pkts_per_sec"`
	// MissRate is redirected packets / injected packets over the window —
	// the ingress cache miss rate.
	MissRate float64 `json:"miss_rate"`
	// RedirectsPerSec is the authority redirect load over the window.
	RedirectsPerSec float64 `json:"redirects_per_sec"`
	// TCAMEntries sums difane_switch_cache_entries across switches — the
	// cluster-wide ingress TCAM occupancy.
	TCAMEntries float64 `json:"tcam_entries"`
	// Evictions is the cumulative cache eviction count.
	Evictions float64 `json:"evictions"`
	// ActiveSessions is the live session count.
	ActiveSessions int `json:"active_sessions"`
	// SessionsTotal is the cumulative session count.
	SessionsTotal uint64 `json:"sessions_total"`
}

// Divergence records one sampled packet whose observed verdict differed
// from the oracle's.
type Divergence struct {
	T       float64        `json:"t"`
	Phase   string         `json:"phase"`
	Ingress uint32         `json:"ingress"`
	Key     flowspace.Key  `json:"key"`
	Want    string         `json:"want"`
	Got     string         `json:"got"`
	Delta   map[string]int `json:"delta,omitempty"`
}

// PhaseSummary aggregates one script phase.
type PhaseSummary struct {
	Phase    string  `json:"phase"`
	Start    float64 `json:"start"`
	Duration float64 `json:"duration"`
	Packets  uint64  `json:"packets"`
	Sessions uint64  `json:"sessions"`
	Moves    uint64  `json:"moves"`
	Probes   uint64  `json:"probes"`
	MissRate float64 `json:"miss_rate"`
	// Health watchdog state when the phase closed.
	HealthFiring   int `json:"health_firing"`
	HealthCritical int `json:"health_critical"`
}

// Report is what a soak run produced.
type Report struct {
	Seed            int64          `json:"seed"`
	Subscribers     int            `json:"subscribers"`
	ModeledSeconds  float64        `json:"modeled_seconds"`
	WallSeconds     float64        `json:"wall_seconds"`
	Packets         uint64         `json:"packets"`
	PktsPerSec      float64        `json:"pkts_per_sec"`
	Sessions        uint64         `json:"sessions"`
	PeakActive      int            `json:"peak_active"`
	Moves           uint64         `json:"moves"`
	Suppressed      uint64         `json:"suppressed"`
	Probes          uint64         `json:"probes"`
	ProbesSkipped   uint64         `json:"probes_skipped"`
	Inconclusive    uint64         `json:"inconclusive"`
	Divergences     []Divergence   `json:"divergences,omitempty"`
	AccountingError string         `json:"accounting_error,omitempty"`
	BudgetExhausted bool           `json:"budget_exhausted,omitempty"`
	Phases          []PhaseSummary `json:"phases"`
	Series          []SeriesPoint  `json:"series"`
	// Forensics: journey assembly stats (present when TraceSample was set),
	// per-epoch convergence timelines, and the watchdog's end-of-run
	// verdicts.
	Journeys            *telemetry.JourneyStats   `json:"journeys,omitempty"`
	JourneyCompleteness float64                   `json:"journey_completeness,omitempty"`
	JourneyGateError    string                    `json:"journey_gate_error,omitempty"`
	Convergence         []telemetry.EpochTimeline `json:"convergence,omitempty"`
	Health              *telemetry.HealthSummary  `json:"health,omitempty"`
}

// Failed reports whether a gate broke: a sampled verdict diverged from
// the oracle, the end-of-run accounting identity (injected = delivered +
// drops) did not hold, journey completeness fell below JourneyGate, or a
// critical SLO rule was firing when the run ended.
func (r *Report) Failed() bool {
	return len(r.Divergences) > 0 || r.AccountingError != "" ||
		r.JourneyGateError != "" ||
		(r.Health != nil && r.Health.Critical > 0)
}

// Render prints the report as difane-style text tables.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "subscriber soak: seed %d, %d subscribers, %.1f modeled s in %.1f wall s\n",
		r.Seed, r.Subscribers, r.ModeledSeconds, r.WallSeconds)
	fmt.Fprintf(&b, "  %d sessions (%d peak active, %d moves), %d packets (%.0f pkts/s sustained)\n",
		r.Sessions, r.PeakActive, r.Moves, r.Packets, r.PktsPerSec)
	fmt.Fprintf(&b, "  %d verdict probes vs oracle: %d divergences, %d inconclusive, %d skipped\n",
		r.Probes, len(r.Divergences), r.Inconclusive, r.ProbesSkipped)
	if r.Journeys != nil {
		j := r.Journeys
		fmt.Fprintf(&b, "  %d traced journeys: %d complete, %d gapped, %d in flight, %d unexplained (%.1f%% completeness)\n",
			j.Total, j.Complete, j.Gapped, j.InFlight, j.Unexplained, 100*r.JourneyCompleteness)
	}
	if r.JourneyGateError != "" {
		fmt.Fprintf(&b, "  JOURNEY GATE: %s\n", r.JourneyGateError)
	}
	if r.Health != nil {
		fmt.Fprintf(&b, "  health: %d evals, %d rules firing (%d critical)\n",
			r.Health.Evals, r.Health.Firing, r.Health.Critical)
		for _, rule := range r.Health.Rules {
			if rule.Firing {
				fmt.Fprintf(&b, "    FIRING [%s] %s: %s\n", rule.Severity, rule.Name, rule.Detail)
			}
		}
	}
	for _, tl := range r.Convergence {
		state := "still converging"
		if tl.Converged {
			state = fmt.Sprintf("converged in %s", time.Duration(tl.DurationNS))
		}
		fmt.Fprintf(&b, "  epoch %d: %d installs, %d withdraws, %d rejects, %s (%d redirected, %d shed, %d dropped during)\n",
			tl.Epoch, tl.Installs, tl.Withdraws, tl.Rejects, state,
			tl.RedirectsDuring, tl.ShedDuring, tl.DroppedDuring)
	}
	if r.AccountingError != "" {
		fmt.Fprintf(&b, "  ACCOUNTING: %s\n", r.AccountingError)
	}
	if r.BudgetExhausted {
		fmt.Fprintf(&b, "  (wall budget exhausted before the script completed)\n")
	}
	fmt.Fprintf(&b, "\n  %-12s %8s %10s %10s %8s %8s\n",
		"phase", "start", "packets", "sessions", "probes", "miss%")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  %-12s %8.1f %10d %10d %8d %7.2f%%\n",
			p.Phase, p.Start, p.Packets, p.Sessions, p.Probes, 100*p.MissRate)
	}
	fmt.Fprintf(&b, "\n  %-8s %-12s %10s %8s %10s %8s %8s\n",
		"t", "phase", "pkts/s", "miss%", "redir/s", "tcam", "active")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-8.1f %-12s %10.0f %7.2f%% %10.0f %8.0f %8d\n",
			s.T, s.Phase, s.PktsPerSec, 100*s.MissRate, s.RedirectsPerSec,
			s.TCAMEntries, s.ActiveSessions)
	}
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  DIVERGENCE t=%.2f phase=%s ingress=%d key=%v want=%s got=%s\n",
			d.T, d.Phase, d.Ingress, d.Key, d.Want, d.Got)
	}
	return b.String()
}

// maxDivergences bounds how many divergences a runaway soak records.
const maxDivergences = 32

// soak is the live harness state; its atomics feed the difane_soak_*
// registry collectors.
type soak struct {
	cfg    SoakConfig
	d      *wire.Deployment
	e      *Engine
	policy []flowspace.Rule

	injected uint64 // packets we pushed (engine traffic + probes)
	start    time.Time

	// Registry-visible gauges (atomics; floats carried as Float64bits).
	phaseIdx    atomic.Int64
	active      atomic.Int64
	sessions    atomic.Uint64
	probes      atomic.Uint64
	divergences atomic.Uint64
	missRate    atomic.Uint64
	tcamEntries atomic.Uint64
	redirectPS  atomic.Uint64

	// lastRedirects is the redirect counter at the previous series sample.
	lastRedirects uint64
}

func storeFloat(a *atomic.Uint64, v float64) { a.Store(math.Float64bits(v)) }
func loadFloat(a *atomic.Uint64) float64     { return math.Float64frombits(a.Load()) }

// registerMetrics adds the soak's difane_soak_* schema to a registry.
// RunSoak calls it on the deployment's own registry, so a live /metrics
// endpoint shows the soak's phase, miss rate, TCAM occupancy, and
// redirect load alongside the cluster's difane_* series. Names are a
// fixed schema — registering twice on one registry panics, exactly like
// the cluster's own metrics.
func (s *soak) registerMetrics(reg *telemetry.Registry) {
	gauge := func(name, help string, fn func() float64) {
		reg.RegisterFunc(name, help, telemetry.TypeGauge, fn)
	}
	counter := func(name, help string, fn func() float64) {
		reg.RegisterFunc(name, help, telemetry.TypeCounter, fn)
	}
	gauge("difane_soak_phase", "Index of the running soak script phase.",
		func() float64 { return float64(s.phaseIdx.Load()) })
	gauge("difane_soak_active_sessions", "Live subscriber sessions.",
		func() float64 { return float64(s.active.Load()) })
	counter("difane_soak_sessions_total", "Cumulative subscriber sessions modeled.",
		func() float64 { return float64(s.sessions.Load()) })
	counter("difane_soak_probes_total", "Sampled packet verdicts diffed against the oracle.",
		func() float64 { return float64(s.probes.Load()) })
	counter("difane_soak_divergences_total", "Sampled verdicts that disagreed with the oracle.",
		func() float64 { return float64(s.divergences.Load()) })
	gauge("difane_soak_miss_rate", "Ingress cache miss rate over the last series window.",
		func() float64 { return loadFloat(&s.missRate) })
	gauge("difane_soak_tcam_entries", "Cluster-wide cache TCAM occupancy at the last sample.",
		func() float64 { return loadFloat(&s.tcamEntries) })
	gauge("difane_soak_redirects_per_sec", "Authority redirect load over the last series window.",
		func() float64 { return loadFloat(&s.redirectPS) })
}

// sumMetric totals a (possibly per-switch labeled) metric's points in one
// registry snapshot.
func sumMetric(snap []telemetry.MetricSnapshot, name string) float64 {
	for i := range snap {
		if snap[i].Name != name {
			continue
		}
		total := 0.0
		for _, p := range snap[i].Points {
			total += p.Value
		}
		return total
	}
	return 0
}

// RunSoak streams the configured subscriber workload through a live wire
// deployment, sampling ~1-in-SampleEvery packet verdicts against the
// oracle and recording miss-rate / TCAM-occupancy / redirect-load time
// series through the telemetry registry. The deployment must route the
// spec's edge switches; the caller closes it.
func RunSoak(d *wire.Deployment, spec *workload.Spec, cfg SoakConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(spec.Policy) == 0 || len(spec.Edges) == 0 {
		return nil, fmt.Errorf("subscriber: spec needs a policy and edge switches")
	}
	s := &soak{
		cfg:    cfg,
		d:      d,
		e:      NewEngine(spec, cfg.Engine, cfg.Phases),
		policy: spec.Policy,
		start:  time.Now(),
	}
	s.registerMetrics(d.C.Registry())
	if cfg.TraceSample > 0 {
		d.C.SetTraceSample(cfg.TraceSample)
		d.C.SetTracing(true)
	}
	return s.run()
}

// logPhase emits one per-phase progress line through cfg.Log, folding in
// the watchdog's live verdict and the most recent convergence timeline.
func (s *soak) logPhase(ps PhaseSummary) {
	if s.cfg.Log == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "phase %-12s %d packets, %d sessions, %d probes, miss %.2f%%",
		ps.Phase, ps.Packets, ps.Sessions, ps.Probes, 100*ps.MissRate)
	if ps.HealthFiring > 0 {
		fmt.Fprintf(&b, ", health: %d firing (%d critical)", ps.HealthFiring, ps.HealthCritical)
	} else {
		b.WriteString(", health: ok")
	}
	if conv := s.d.C.Convergence(); conv != nil {
		if tl, ok := conv.Last(); ok {
			if tl.Converged {
				fmt.Fprintf(&b, ", epoch %d converged in %s", tl.Epoch, time.Duration(tl.DurationNS))
			} else {
				fmt.Fprintf(&b, ", epoch %d converging", tl.Epoch)
			}
		}
	}
	s.cfg.Log("%s", b.String())
}

func (s *soak) run() (*Report, error) {
	cfg := s.cfg
	rep := &Report{
		Seed:        cfg.Engine.withDefaults().Seed,
		Subscribers: cfg.Engine.withDefaults().Subscribers,
	}
	var (
		nextProbe   = uint64(cfg.SampleEvery)
		nextSeries  = seriesInterval
		lastWall    = 0.0
		lastPkts    = uint64(0)
		curPhase    = -1
		phasePkts0  uint64
		phaseSess0  uint64
		phaseMoves0 uint64
		phaseProbe0 uint64
		phaseRedir0 uint64
		phaseInj0   uint64
	)
	closePhase := func(now float64) {
		if curPhase < 0 || curPhase >= len(cfg.Phases) {
			return
		}
		m := s.d.Measurements()
		ps := PhaseSummary{
			Phase:    cfg.Phases[curPhase].Name,
			Start:    math.Max(0, now-cfg.Phases[curPhase].Duration),
			Duration: cfg.Phases[curPhase].Duration,
			Packets:  s.e.TotalPackets() - phasePkts0,
			Sessions: s.e.TotalSessions() - phaseSess0,
			Moves:    s.e.TotalMoves() - phaseMoves0,
			Probes:   s.probes.Load() - phaseProbe0,
		}
		if inj := s.injected - phaseInj0; inj > 0 {
			ps.MissRate = float64(m.Redirects-phaseRedir0) / float64(inj)
		}
		if wd := s.d.C.Watchdog(); wd != nil {
			sum := wd.Summary()
			ps.HealthFiring, ps.HealthCritical = sum.Firing, sum.Critical
		}
		rep.Phases = append(rep.Phases, ps)
		s.logPhase(ps)
	}
	openPhase := func(idx int) {
		curPhase = idx
		m := s.d.Measurements()
		phasePkts0 = s.e.TotalPackets()
		phaseSess0 = s.e.TotalSessions()
		phaseMoves0 = s.e.TotalMoves()
		phaseProbe0 = s.probes.Load()
		phaseRedir0 = m.Redirects
		phaseInj0 = s.injected
		s.phaseIdx.Store(int64(idx))
	}
	openPhase(0)

	for !s.e.Done() {
		if cfg.WallBudget > 0 && time.Since(s.start) > cfg.WallBudget {
			rep.BudgetExhausted = true
			break
		}
		tick := s.e.Advance(tickDt)
		if tick.PhaseChanged {
			closePhase(tick.Now - tickDt)
			if tick.Done {
				curPhase = -1
			} else {
				openPhase(tick.PhaseIndex)
			}
		}
		if tick.Done {
			break
		}
		s.active.Store(int64(tick.Active))
		s.sessions.Store(s.e.TotalSessions())
		if rep.PeakActive < tick.Active {
			rep.PeakActive = tick.Active
		}

		if len(tick.Batch) > 0 {
			s.d.InjectBatch(tick.Batch)
			s.injected += uint64(len(tick.Batch))
		}

		// Verdict sampling: once the packet counter crosses the next probe
		// mark, re-inject one of this tick's packets against a quiesced
		// deployment and diff its terminal verdict against the oracle.
		if cfg.SampleEvery > 0 && s.e.TotalPackets() >= nextProbe && len(tick.Batch) > 0 {
			pick := tick.Batch[int(nextProbe%uint64(len(tick.Batch)))]
			s.probe(pick, tick, rep)
			nextProbe += uint64(cfg.SampleEvery)
			if len(rep.Divergences) >= maxDivergences {
				break
			}
		}

		// Telemetry series: scrape the registry and fold the window's
		// deltas into one point.
		if tick.Now >= nextSeries {
			wall := time.Since(s.start).Seconds()
			m := s.d.Measurements()
			snap := s.d.C.Registry().Snapshot()
			dwall := wall - lastWall
			dpkts := s.injected - lastPkts
			pt := SeriesPoint{
				T: tick.Now, Wall: wall, Phase: tick.Phase,
				TCAMEntries:    sumMetric(snap, "difane_switch_cache_entries"),
				Evictions:      sumMetric(snap, "difane_switch_cache_evictions_total"),
				ActiveSessions: tick.Active,
				SessionsTotal:  s.e.TotalSessions(),
			}
			redirDelta := m.Redirects - s.lastRedirects
			if dwall > 0 {
				pt.PktsPerSec = float64(dpkts) / dwall
				pt.RedirectsPerSec = float64(redirDelta) / dwall
			}
			if dpkts > 0 {
				pt.MissRate = float64(redirDelta) / float64(dpkts)
			}
			rep.Series = append(rep.Series, pt)
			storeFloat(&s.missRate, pt.MissRate)
			storeFloat(&s.tcamEntries, pt.TCAMEntries)
			storeFloat(&s.redirectPS, pt.RedirectsPerSec)
			lastWall, lastPkts = wall, s.injected
			s.lastRedirects = m.Redirects
			nextSeries += seriesInterval
		}
	}
	if !rep.BudgetExhausted && len(rep.Divergences) < maxDivergences {
		closePhase(s.e.Now())
		curPhase = -1
	}

	// Drain everything still in flight, then audit the accounting
	// identity: every packet we injected must have reached exactly one
	// terminal counter.
	s.d.Run(quiesceTimeout)
	final := scencheck.TotalsOf(s.d.Measurements())
	if final.Sum() != s.injected {
		rep.AccountingError = fmt.Sprintf(
			"identity: injected %d but accounted %d (delivered=%d policy=%d hole=%d queue=%d shed=%d unreachable=%d)",
			s.injected, final.Sum(), final.Delivered, final.PolicyDrops,
			final.Holes, final.QueueDrops, final.Shed, final.Unreachable)
	}

	// Forensics: fold the run's journeys, convergence timelines, and
	// watchdog verdicts into the report. The watchdog's own loop owns its
	// clock base, so we only read its summary — never EvalOnce from here.
	if s.d.C.TraceSampleRate() > 0 {
		_, js := s.d.C.Journeys(telemetry.JourneyFilter{})
		rep.Journeys = &js
		rep.JourneyCompleteness = js.Completeness()
		if cfg.JourneyGate > 0 && rep.JourneyCompleteness < cfg.JourneyGate {
			rep.JourneyGateError = fmt.Sprintf(
				"completeness %.2f%% below the %.2f%% gate (%d/%d complete, %d gapped, %d in flight)",
				100*rep.JourneyCompleteness, 100*cfg.JourneyGate,
				js.Complete, js.Total, js.Gapped, js.InFlight)
		}
	}
	if conv := s.d.C.Convergence(); conv != nil {
		if tl := conv.Timelines(); len(tl) > 0 {
			rep.Convergence = tl
		}
	}
	if wd := s.d.C.Watchdog(); wd != nil {
		sum := wd.Summary()
		rep.Health = &sum
	}

	rep.ModeledSeconds = s.e.Now()
	rep.WallSeconds = time.Since(s.start).Seconds()
	rep.Packets = s.e.TotalPackets()
	rep.Sessions = s.e.TotalSessions()
	rep.Moves = s.e.TotalMoves()
	rep.Suppressed = s.e.TotalSuppressed()
	rep.Probes = s.probes.Load()
	if rep.WallSeconds > 0 {
		rep.PktsPerSec = float64(s.injected) / rep.WallSeconds
	}
	return rep, nil
}

// probe quiesces the deployment, re-injects one sampled packet, and
// compares its terminal verdict with the oracle's. Quiescence is proven
// by the accounting identity (everything injected so far terminal);
// when the drain times out under a backlog the probe is skipped rather
// than risk attributing a straggler's counter to the probe.
func (s *soak) probe(p core.PacketIn, tick Tick, rep *Report) {
	s.d.Run(quiesceTimeout)
	before := scencheck.TotalsOf(s.d.Measurements())
	if before.Sum() != s.injected {
		rep.ProbesSkipped++
		return
	}
	// Stale delivery notifications would masquerade as the probe's.
	for {
		select {
		case <-s.d.C.Deliveries:
			continue
		default:
		}
		break
	}
	s.d.InjectPacket(0, p.Ingress, p.Key, p.Size, 0)
	s.injected++
	s.d.Run(quiesceTimeout)
	delta := scencheck.TotalsOf(s.d.Measurements()).Sub(before)
	s.probes.Add(1)

	want := oracle.Evaluate(s.policy, p.Key)
	got, ok := classify(delta)
	if !ok {
		// The counters did not move exactly once — the probe raced a
		// straggler or timed out mid-flight. Record it as inconclusive.
		rep.Inconclusive++
		return
	}
	if got == "queue-drop" || got == "shed" {
		// Load-shedding verdicts are a capacity statement, not a policy
		// one; the oracle has no opinion. Never expected on a quiesced
		// probe, so surface them as inconclusive for the report.
		rep.Inconclusive++
		return
	}
	msg := s.verdictMismatch(want, got, delta)
	if msg == "" {
		return
	}
	s.divergences.Add(1)
	rep.Divergences = append(rep.Divergences, Divergence{
		T: tick.Now, Phase: tick.Phase, Ingress: p.Ingress, Key: p.Key,
		Want: want.String(), Got: msg,
		Delta: map[string]int{
			"delivered": int(delta.Delivered), "policy": int(delta.PolicyDrops),
			"hole": int(delta.Holes), "queue": int(delta.QueueDrops),
			"shed": int(delta.Shed), "unreachable": int(delta.Unreachable),
		},
	})
}

// classify names the single terminal counter a probe moved.
func classify(d scencheck.Totals) (string, bool) {
	if d.Sum() != 1 {
		return "", false
	}
	switch {
	case d.Delivered == 1:
		return "delivered", true
	case d.PolicyDrops == 1:
		return "policy-drop", true
	case d.Holes == 1:
		return "hole", true
	case d.QueueDrops == 1:
		return "queue-drop", true
	case d.Shed == 1:
		return "shed", true
	default:
		return "unreachable", true
	}
}

// verdictMismatch compares the oracle's expectation against the observed
// terminal class (plus the delivery's egress), returning "" on agreement.
func (s *soak) verdictMismatch(want oracle.Verdict, got string, delta scencheck.Totals) string {
	switch want.Kind {
	case oracle.Deliver:
		if got != "delivered" {
			return fmt.Sprintf("%s (want delivery to %d)", got, want.Egress)
		}
		select {
		case del := <-s.d.C.Deliveries:
			if del.Egress != want.Egress {
				return fmt.Sprintf("delivered to %d (want %d)", del.Egress, want.Egress)
			}
		case <-time.After(2 * time.Second):
			// Notification shed under channel pressure; the counter already
			// proved delivery, so the verdict stands without the egress
			// check.
		}
	case oracle.Drop:
		if got != "policy-drop" {
			return fmt.Sprintf("%s (want policy drop)", got)
		}
	case oracle.Hole:
		// A hole may surface as a hole drop or — when no partition rule
		// covers the region — as unreachable; both mean "the policy said
		// nothing".
		if got != "hole" && got != "unreachable" {
			return fmt.Sprintf("%s (want hole)", got)
		}
	}
	return ""
}
