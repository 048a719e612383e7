package core

import (
	"difane/internal/flowspace"
	"difane/internal/metrics"
	"difane/internal/telemetry"
)

// This file is the simulator's side of the measurement spine every backend
// shares: the one registration of the difane_* measurement schema
// (RegisterMeasurements — the baseline and wire mode call it too, so a
// name means the same thing on all three), and what telemetry.Probe leaves
// to the backend: the verdict spans and the convergence tracker's counter
// totals.

// RegisterMeasurements registers the shared measurement schema on reg,
// collecting from snap at every scrape. snap returns the Measurements to
// read: the live struct on the single-goroutine simulators (scrape between
// Run calls or from the driving goroutine — nothing in it is
// synchronized), a freshly merged snapshot in wire mode.
func RegisterMeasurements(reg *telemetry.Registry, snap func() *Measurements) {
	counter := func(name, help string, fn func(*Measurements) uint64) {
		reg.RegisterFunc(name, help, telemetry.TypeCounter, func() float64 {
			return float64(fn(snap()))
		})
	}
	summary := func(name, help string, sel func(*Measurements) *metrics.Dist) {
		reg.RegisterSummary(name, help, func() telemetry.SummaryView {
			return telemetry.DistSummary(sel(snap()))
		})
	}

	counter("difane_delivered_total", "Packets delivered to their egress.",
		func(m *Measurements) uint64 { return m.Delivered })
	counter("difane_redirects_total", "Cache misses redirected toward an authority switch.",
		func(m *Measurements) uint64 { return m.Redirects })
	counter("difane_dropped_total", "Packets lost (queues, holes, unreachable, shed).",
		func(m *Measurements) uint64 { return m.Drops.Lost() })

	reg.Register("difane_drops_total", "Terminal packet drops by kind (policy drops are not losses).", telemetry.TypeCounter,
		func() []telemetry.Point {
			d := snap().Drops
			kind := func(k string, v uint64) telemetry.Point {
				return telemetry.Point{
					Labels: []telemetry.Label{{Key: "kind", Value: k}},
					Value:  float64(v),
				}
			}
			return []telemetry.Point{
				kind("policy", d.Policy),
				kind("hole", d.Hole),
				kind("queue", d.AuthorityQueue),
				kind("unreachable", d.Unreachable),
				kind("redirect-shed", d.RedirectShed),
			}
		})

	counter("difane_authority_deaths_total", "Switches the failure detector declared dead.",
		func(m *Measurements) uint64 { return m.AuthorityDeaths })

	summary("difane_first_packet_delay_seconds",
		"Delivery latency of flow-setup packets (via an authority).",
		func(m *Measurements) *metrics.Dist { return &m.FirstPacketDelay })
	summary("difane_later_packet_delay_seconds",
		"Delivery latency of cache-hit packets.",
		func(m *Measurements) *metrics.Dist { return &m.LaterPacketDelay })
	summary("difane_failover_detection_seconds",
		"Fault-injection to death-verdict detection latency.",
		func(m *Measurements) *metrics.Dist { return &m.FailoverDetection })
}

// VerdictCode maps a terminal outcome onto the shared telemetry verdict
// codes, for every backend's spans.
func VerdictCode(kind VerdictKind) uint8 {
	switch kind {
	case VerdictDelivered:
		return telemetry.VDelivered
	case VerdictPolicyDrop:
		return telemetry.VDropPolicy
	case VerdictHole:
		return telemetry.VDropHole
	case VerdictQueueDrop:
		return telemetry.VDropQueue
	case VerdictUnreachable:
		return telemetry.VUnreachable
	default:
		return telemetry.VNone
	}
}

// finish ends a packet at node with kind: counted in M, reported to the
// Observer (exactly once per injected packet, the accounting-identity
// bijection), and spanned as a terminal verdict when it is sampled. A
// delivery, at its egress node, gives whether it took the authority detour
// and its delay in seconds.
func (n *Network) finish(kind VerdictKind, node uint32, k flowspace.Key, seq, trace uint64, detour bool, delay float64) {
	m := &n.M
	switch kind {
	case VerdictDelivered:
		m.Delivered++
	case VerdictPolicyDrop:
		m.Drops.Policy++
	case VerdictHole:
		m.Drops.Hole++
	case VerdictQueueDrop:
		m.Drops.AuthorityQueue++
	default:
		m.Drops.Unreachable++
	}
	if seq == 0 && (kind == VerdictDelivered || kind == VerdictPolicyDrop) {
		m.SetupsCompleted++ // a flow's first packet completes its setup
	}
	if n.Observer != nil {
		ev := VerdictEvent{Key: k, Seq: seq, Kind: kind, Detour: detour}
		if kind == VerdictDelivered {
			ev.Egress = node
		}
		n.Observer(ev)
	}
	if trace != 0 {
		n.Span(telemetry.Event{
			Kind:    telemetry.EvVerdict,
			Node:    node,
			Verdict: VerdictCode(kind),
			Value:   uint64(delay * 1e9),
			Trace:   trace,
			Flow:    telemetry.TupleOfKey(k),
		})
	}
}

// counterTotals snapshots the counters the convergence tracker diffs
// across a policy-update window.
func (n *Network) counterTotals() telemetry.CounterTotals {
	return telemetry.CounterTotals{
		Redirects: n.M.Redirects,
		Shed:      n.M.Drops.RedirectShed + n.M.CacheInstallsShed,
		Dropped:   n.M.Drops.Lost(),
	}
}
