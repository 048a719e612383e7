package telemetry

import "difane/internal/metrics"

// SummaryQuantiles are the quantile points summaries export.
var SummaryQuantiles = []float64{0.5, 0.9, 0.99}

// DistSummary converts a metrics.Dist into the registry's summary shape.
// A Dist is not synchronized: hand this a snapshot, or a Dist nothing is
// writing to.
func DistSummary(d *metrics.Dist) SummaryView {
	v := SummaryView{Count: uint64(d.N()), Sum: d.Sum()}
	if v.Count == 0 {
		return v
	}
	for _, q := range SummaryQuantiles {
		v.Quantiles = append(v.Quantiles, [2]float64{q, d.Quantile(q)})
	}
	return v
}
