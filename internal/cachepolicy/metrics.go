package cachepolicy

import (
	"strconv"

	"difane/internal/telemetry"
)

// RegisterMetrics adds the difane_cache_* schema to a telemetry registry:
// cost-model counters plus per-region gauges for the adapted idle
// timeouts and the observed latency / inter-arrival inputs behind them.
func (p *Policy) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterFunc("difane_cache_cost_evictions_total",
		"victims selected by the cost-aware eviction scorer",
		telemetry.TypeCounter, func() float64 { return float64(p.costEvictions.Load()) })
	reg.RegisterFunc("difane_cache_idle_adaptations_total",
		"material per-region idle-timeout adaptations",
		telemetry.TypeCounter, func() float64 { return float64(p.adaptations.Load()) })
	reg.RegisterFunc("difane_cache_aggregations_total",
		"cover rules installed by cache aggregation",
		telemetry.TypeCounter, func() float64 { return float64(p.aggregations.Load()) })
	reg.RegisterFunc("difane_cache_aggregated_entries_total",
		"near-microflow cache entries replaced by aggregation covers",
		telemetry.TypeCounter, func() float64 { return float64(p.aggReplaced.Load()) })
	perRegion := func(value func(*regionStats) (float64, bool)) func() []telemetry.Point {
		return func() []telemetry.Point {
			p.mu.Lock()
			defer p.mu.Unlock()
			var out []telemetry.Point
			for _, i := range p.regionsLocked() {
				if v, ok := value(p.regions[i]); ok {
					out = append(out, telemetry.Point{
						Labels: []telemetry.Label{{Key: "region", Value: strconv.Itoa(i)}},
						Value:  v,
					})
				}
			}
			return out
		}
	}
	reg.Register("difane_cache_region_idle_seconds",
		"adapted cache idle timeout per policy region",
		telemetry.TypeGauge, perRegion(func(st *regionStats) (float64, bool) {
			return st.idle, st.idle > 0
		}))
	reg.Register("difane_cache_region_redirect_latency_seconds",
		"observed redirect latency per policy region (EWMA)",
		telemetry.TypeGauge, perRegion(func(st *regionStats) (float64, bool) {
			return st.latency, st.latOK
		}))
	reg.Register("difane_cache_region_inter_arrival_seconds",
		"observed packet inter-arrival per policy region (EWMA)",
		telemetry.TypeGauge, perRegion(func(st *regionStats) (float64, bool) {
			return st.inter, st.interOK
		}))
}
