package telemetry

import (
	"fmt"
	"sync"
)

// Rule severities. Soak's failure gate trips only on critical rules; warn
// rules are operator signals.
const (
	SevWarn     = "warn"
	SevCritical = "critical"
)

// The default rules' thresholds. The min* floors keep a rule quiet until
// enough traffic moved in a window to make its ratio meaningful.
const (
	// missRateMax fires miss-rate-burn when redirects (partition hits)
	// exceed this fraction of cache plus partition hits in a window: a
	// sustained burn, not a cold-start blip.
	missRateMax   = 0.75
	minClassified = 500
	// imbalanceMax fires redirect-imbalance when the busiest authority's
	// redirect delta exceeds this multiple of the mean.
	imbalanceMax = 4.0
	minRedirects = 200
	// evictionPerDeliveryMax fires tcam-pressure when cache evictions per
	// delivered packet exceed it: the cache is thrashing.
	evictionPerDeliveryMax = 0.5
	minDeliveries          = 500
	// bfdFlapRateMax fires bfd-flap when BFD session state transitions
	// exceed this rate per second.
	bfdFlapRateMax = 5.0
	// convergenceStallNS fires convergence-stall when a policy update has
	// been converging longer than this (10 s).
	convergenceStallNS = 10_000_000_000
)

// HealthView is what a rule evaluates: the previous and current registry
// scrapes flattened by metric name, the wall seconds between them, and the
// evaluation timestamp.
type HealthView struct {
	NowNS int64
	DT    float64 // seconds between the two scrapes
	prev  map[string][]Point
	cur   map[string][]Point
}

func sumPoints(pts []Point) float64 {
	var s float64
	for i := range pts {
		s += pts[i].Value
	}
	return s
}

// Sum returns the current scrape's summed value for a metric.
func (v *HealthView) Sum(name string) float64 { return sumPoints(v.cur[name]) }

// Delta returns the window's increase of a metric, clamped at zero
// (counters can reset when a cluster restarts behind a long-lived scraper).
func (v *HealthView) Delta(name string) float64 {
	d := sumPoints(v.cur[name]) - sumPoints(v.prev[name])
	if d < 0 {
		return 0
	}
	return d
}

// Rate returns Delta per second (0 when the window has no width).
func (v *HealthView) Rate(name string) float64 {
	if v.DT <= 0 {
		return 0
	}
	return v.Delta(name) / v.DT
}

// DeltaByLabel returns each labeled point's window increase keyed by its
// first label value, clamped at zero.
func (v *HealthView) DeltaByLabel(name string) map[string]float64 {
	prev := make(map[string]float64)
	for _, p := range v.prev[name] {
		if len(p.Labels) > 0 {
			prev[p.Labels[0].Value] = p.Value
		}
	}
	out := make(map[string]float64)
	for _, p := range v.cur[name] {
		if len(p.Labels) == 0 {
			continue
		}
		d := p.Value - prev[p.Labels[0].Value]
		if d < 0 {
			d = 0
		}
		out[p.Labels[0].Value] = d
	}
	return out
}

// HealthRule is one declarative SLO check evaluated per watchdog tick.
type HealthRule struct {
	Name     string
	Severity string
	Help     string
	// Eval returns whether the rule fires, the measured value, and a
	// human-readable detail line.
	Eval func(v *HealthView) (firing bool, value float64, detail string)
}

// RuleStatus is one rule's state after an evaluation pass.
type RuleStatus struct {
	Name     string  `json:"name"`
	Severity string  `json:"severity"`
	Firing   bool    `json:"firing"`
	Value    float64 `json:"value"`
	Detail   string  `json:"detail,omitempty"`
	SinceNS  int64   `json:"since_ns,omitempty"` // when the rule started firing
}

// DefaultHealthRules builds the standard SLO rule set over the shared
// difane_* metric schema.
func DefaultHealthRules() []HealthRule {
	return []HealthRule{
		{
			Name: "miss-rate-burn", Severity: SevWarn,
			Help: "redirects dominate classifications: the cache is not absorbing the working set",
			Eval: func(v *HealthView) (bool, float64, string) {
				// Not authority hits: those count the redirects answered too.
				hits := v.Delta("difane_switch_cache_hits_total")
				redirects := v.Delta("difane_switch_partition_hits_total")
				total := hits + redirects
				if total < minClassified {
					return false, 0, ""
				}
				rate := redirects / total
				return rate > missRateMax, rate,
					fmt.Sprintf("miss rate %.2f over %.0f classifications (max %.2f)", rate, total, missRateMax)
			},
		},
		{
			Name: "redirect-imbalance", Severity: SevWarn,
			Help: "one authority switch serves a disproportionate share of redirects",
			Eval: func(v *HealthView) (bool, float64, string) {
				deltas := v.DeltaByLabel("difane_switch_authority_hits_total")
				var total, max float64
				var maxSwitch string
				active := 0
				for sw, d := range deltas {
					total += d
					if d > 0 {
						active++
					}
					if d > max {
						max, maxSwitch = d, sw
					}
				}
				// Mean over switches that served redirects this window:
				// non-authority switches report a structural zero and must
				// not deflate the denominator.
				if total < minRedirects || len(deltas) < 2 || active < 2 {
					return false, 0, ""
				}
				mean := total / float64(active)
				ratio := max / mean
				return ratio > imbalanceMax, ratio,
					fmt.Sprintf("switch %s took %.0f of %.0f redirects (%.1fx mean, max %.1fx)",
						maxSwitch, max, total, ratio, imbalanceMax)
			},
		},
		{
			Name: "tcam-pressure", Severity: SevWarn,
			Help: "cache evictions per delivery signal a thrashing TCAM budget",
			Eval: func(v *HealthView) (bool, float64, string) {
				delivered := v.Delta("difane_delivered_total")
				if delivered < minDeliveries {
					return false, 0, ""
				}
				evictions := v.Delta("difane_switch_cache_evictions_total")
				ratio := evictions / delivered
				return ratio > evictionPerDeliveryMax, ratio,
					fmt.Sprintf("%.0f evictions over %.0f deliveries (%.2f/pkt, max %.2f)",
						evictions, delivered, ratio, evictionPerDeliveryMax)
			},
		},
		{
			Name: "bfd-flap", Severity: SevCritical,
			Help: "BFD sessions are flapping faster than failures can be real",
			Eval: func(v *HealthView) (bool, float64, string) {
				rate := v.Rate("difane_bfd_transitions_total")
				return rate > bfdFlapRateMax, rate,
					fmt.Sprintf("%.1f BFD transitions/s (max %.1f)", rate, bfdFlapRateMax)
			},
		},
		{
			Name: "convergence-stall", Severity: SevCritical,
			Help: "a policy update has not reached quiescence within its budget",
			Eval: func(v *HealthView) (bool, float64, string) {
				since := v.Sum("difane_epoch_active_since_ns")
				if since <= 0 {
					return false, 0, ""
				}
				age := v.NowNS - int64(since)
				return age > convergenceStallNS, float64(age),
					fmt.Sprintf("update converging for %.1fs (budget %.1fs)",
						float64(age)/1e9, float64(convergenceStallNS)/1e9)
			},
		},
	}
}

// Watchdog evaluates a rule set over successive registry scrapes. Drive it
// from a ticker (wire mode) or call EvalOnce directly (sim, tests).
type Watchdog struct {
	reg   *Registry
	rules []HealthRule

	mu     sync.Mutex
	prev   map[string][]Point
	prevNS int64
	status []RuleStatus
	evals  uint64
}

// NewWatchdog builds a watchdog over reg. The first EvalOnce establishes
// the baseline scrape; rules begin judging from the second.
func NewWatchdog(reg *Registry, rules []HealthRule) *Watchdog {
	w := &Watchdog{reg: reg, rules: rules, status: make([]RuleStatus, len(rules))}
	for i, r := range rules {
		w.status[i] = RuleStatus{Name: r.Name, Severity: r.Severity}
	}
	return w
}

// EvalOnce scrapes the registry, evaluates every rule against the previous
// scrape, and returns the new statuses. nowNS is the caller's clock
// (monotonic ns in wire mode, virtual ns in the simulator).
func (w *Watchdog) EvalOnce(nowNS int64) []RuleStatus {
	cur := w.reg.points() // outside the lock: collectors may read our gauges

	w.mu.Lock()
	defer w.mu.Unlock()
	w.evals++
	if w.prev == nil {
		w.prev, w.prevNS = cur, nowNS
		return append([]RuleStatus(nil), w.status...)
	}
	view := &HealthView{
		NowNS: nowNS,
		DT:    float64(nowNS-w.prevNS) / 1e9,
		prev:  w.prev,
		cur:   cur,
	}
	for i, r := range w.rules {
		firing, value, detail := r.Eval(view)
		st := &w.status[i]
		if firing && !st.Firing {
			st.SinceNS = nowNS
		}
		if !firing {
			st.SinceNS = 0
		}
		st.Firing, st.Value, st.Detail = firing, value, detail
	}
	w.prev, w.prevNS = cur, nowNS
	return append([]RuleStatus(nil), w.status...)
}

// Status returns the latest rule statuses and the evaluation count.
func (w *Watchdog) Status() ([]RuleStatus, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]RuleStatus(nil), w.status...), w.evals
}

// Firing returns the currently-firing rules, optionally filtered to one
// severity ("" = all).
func (w *Watchdog) Firing(severity string) []RuleStatus {
	st, _ := w.Status()
	out := st[:0:0]
	for _, s := range st {
		if s.Firing && (severity == "" || s.Severity == severity) {
			out = append(out, s)
		}
	}
	return out
}

// HealthSummary compresses the watchdog state for reports and log lines.
type HealthSummary struct {
	Evals    uint64       `json:"evals"`
	Firing   int          `json:"firing"`
	Critical int          `json:"critical"`
	Rules    []RuleStatus `json:"rules"`
}

// Summary builds a HealthSummary from the latest evaluation.
func (w *Watchdog) Summary() HealthSummary {
	st, evals := w.Status()
	s := HealthSummary{Evals: evals, Rules: st}
	for _, r := range st {
		if r.Firing {
			s.Firing++
			if r.Severity == SevCritical {
				s.Critical++
			}
		}
	}
	return s
}

// HealthResponse is the /health JSON shape.
type HealthResponse struct {
	NowNS   int64        `json:"now_ns"`
	Healthy bool         `json:"healthy"`
	Evals   uint64       `json:"evals"`
	Rules   []RuleStatus `json:"rules"`
}

// View assembles the endpoint shape at the caller's now.
func (w *Watchdog) View(nowNS int64) HealthResponse {
	st, evals := w.Status()
	resp := HealthResponse{NowNS: nowNS, Healthy: true, Evals: evals, Rules: st}
	for _, r := range st {
		if r.Firing {
			resp.Healthy = false
		}
	}
	return resp
}

// RegisterMetrics exports the watchdog as difane_health_* series.
func (w *Watchdog) RegisterMetrics(reg *Registry) {
	reg.Register("difane_health_firing", "1 while the named SLO rule fires.", TypeGauge,
		func() []Point {
			st, _ := w.Status()
			pts := make([]Point, 0, len(st))
			for _, r := range st {
				v := 0.0
				if r.Firing {
					v = 1
				}
				pts = append(pts, Point{
					Labels: []Label{{Key: "rule", Value: r.Name}, {Key: "severity", Value: r.Severity}},
					Value:  v,
				})
			}
			return pts
		})
	reg.RegisterFunc("difane_health_evals_total", "Watchdog evaluation passes.", TypeCounter,
		func() float64 {
			_, evals := w.Status()
			return float64(evals)
		})
	reg.RegisterFunc("difane_health_firing_count", "SLO rules currently firing.", TypeGauge,
		func() float64 { return float64(len(w.Firing(""))) })
	reg.RegisterFunc("difane_health_critical_count", "Critical SLO rules currently firing.", TypeGauge,
		func() float64 { return float64(len(w.Firing(SevCritical))) })
}
