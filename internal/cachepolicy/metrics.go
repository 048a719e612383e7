package cachepolicy

import "difane/internal/telemetry"

// RegisterMetrics adds the difane_cache_* schema to a telemetry registry:
// how often the policy adapted an idle timeout and folded cache entries
// into aggregation covers.
func (p *Policy) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterFunc("difane_cache_idle_adaptations_total",
		"material per-region idle-timeout adaptations",
		telemetry.TypeCounter, func() float64 { return float64(p.adaptations.Load()) })
	reg.RegisterFunc("difane_cache_aggregations_total",
		"cover rules installed by cache aggregation",
		telemetry.TypeCounter, func() float64 { return float64(p.aggregations.Load()) })
	reg.RegisterFunc("difane_cache_aggregated_entries_total",
		"near-microflow cache entries replaced by aggregation covers",
		telemetry.TypeCounter, func() float64 { return float64(p.aggReplaced.Load()) })
}
