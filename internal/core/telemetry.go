package core

import (
	"difane/internal/metrics"
	"difane/internal/telemetry"
)

// This file bridges core.Measurements onto the telemetry registry, giving
// the simulated backends the same metric schema wire mode exports: the
// names below match wire's registry exactly, so a dashboard built against
// one backend reads the others unchanged.

// RegisterMeasurements registers the shared measurement schema on reg,
// collecting from snap at every scrape. snap must return the live
// Measurements; the distributions are internally synchronized, but the
// plain counters are written without atomics by the simulators, so scrape
// between Run calls (or from the driving goroutine) when the source is a
// discrete-event backend.
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
	counter("difane_setups_completed_total", "Flow setups resolved at an authority.",
		func(m *Measurements) uint64 { return m.SetupsCompleted })
	counter("difane_dropped_total", "Packets lost (queues, holes, unreachable, shed).",
		func(m *Measurements) uint64 {
			d := snap().Drops
			return d.Policy + d.Hole + d.AuthorityQueue + d.RedirectShed + d.Unreachable
		})

	reg.Register("difane_drops_total", "Terminal packet losses by kind.", telemetry.TypeCounter,
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
	counter("difane_failovers_local_total", "Ingress-local partition-rule repoints onto a backup authority.",
		func(m *Measurements) uint64 { return m.FailoversLocal })
	counter("difane_failovers_promoted_total", "Partition rules withdrawn by controller-driven promotion.",
		func(m *Measurements) uint64 { return m.FailoversPromoted })
	counter("difane_control_reconnects_total", "Control connections re-established.",
		func(m *Measurements) uint64 { return m.ControlReconnects })
	counter("difane_controller_outages_total", "Controller losses ridden out.",
		func(m *Measurements) uint64 { return m.ControllerOutages })
	counter("difane_stale_installs_rejected_total", "FlowMods refused by epoch fencing.",
		func(m *Measurements) uint64 { return m.StaleInstallsRejected })
	counter("difane_cache_installs_shed_total", "Cache installs shed: install token bucket, full ingress queue, or dead ingress.",
		func(m *Measurements) uint64 { return m.CacheInstallsShed })
	counter("difane_policy_rule_installs_total", "Authority/partition rules installed by policy churn.",
		func(m *Measurements) uint64 { return m.PolicyRuleInstalls })
	counter("difane_policy_rule_deletes_total", "Authority/partition rules removed by policy churn.",
		func(m *Measurements) uint64 { return m.PolicyRuleDeletes })
	counter("difane_leader_elections_total", "Controller leader elections completed.",
		func(m *Measurements) uint64 { return m.LeaderElections })

	summary("difane_first_packet_delay_seconds",
		"Delivery latency of flow-setup packets (via an authority).",
		func(m *Measurements) *metrics.Dist { return &m.FirstPacketDelay })
	summary("difane_later_packet_delay_seconds",
		"Delivery latency of cache-hit packets.",
		func(m *Measurements) *metrics.Dist { return &m.LaterPacketDelay })
	summary("difane_stretch_ratio",
		"Path stretch of packets that took the authority detour.",
		func(m *Measurements) *metrics.Dist { return &m.Stretch })
	summary("difane_failover_detection_seconds",
		"Fault-injection to death-verdict detection latency.",
		func(m *Measurements) *metrics.Dist { return &m.FailoverDetection })
	summary("difane_leader_election_seconds",
		"Leader-kill to new-leader-seated election duration.",
		func(m *Measurements) *metrics.Dist { return &m.LeaderElection })
}

// Telemetry returns one scrape of the network's metric registry, including
// the flight recorder's trace accounting. The registry (and the health
// watchdog that scrapes it) is built on first call and collects from the
// live Measurements on every scrape.
func (n *Network) Telemetry() *telemetry.Snapshot {
	n.telOnce.Do(func() {
		reg := telemetry.NewRegistry()
		RegisterMeasurements(reg, func() *Measurements { return &n.M })
		reg.RegisterFunc("difane_cache_entries",
			"Installed cache rules across all switches.", telemetry.TypeGauge,
			func() float64 { return float64(n.CacheEntries()) })
		reg.RegisterFunc("difane_switches",
			"Switches in the simulated topology.", telemetry.TypeGauge,
			func() float64 { return float64(len(n.Switches)) })
		if n.cachePol != nil {
			n.cachePol.RegisterMetrics(reg)
		}
		reg.RegisterFunc("difane_trace_enabled",
			"1 while the flight recorder accepts events.", telemetry.TypeGauge,
			func() float64 {
				if n.rec.Enabled() {
					return 1
				}
				return 0
			})
		reg.RegisterFunc("difane_trace_writes_total",
			"Events ever published to the flight recorder.", telemetry.TypeCounter,
			func() float64 { return float64(n.rec.Stats().Writes) })
		reg.RegisterFunc("difane_trace_dropped_total",
			"Flight-recorder events lost to ring wraparound.", telemetry.TypeCounter,
			func() float64 { return float64(n.rec.Stats().Dropped) })
		reg.RegisterFunc("difane_trace_sample",
			"Per-packet trace sampling rate (1-in-N, 0 = off).", telemetry.TypeGauge,
			func() float64 { return float64(n.sampler.Rate()) })
		n.conv.RegisterMetrics(reg)
		n.wd = telemetry.NewWatchdog(reg, telemetry.DefaultHealthRules(n.cfg.Health))
		n.wd.RegisterMetrics(reg)
		n.telReg = reg
	})
	return &telemetry.Snapshot{Metrics: n.telReg.Snapshot(), Trace: n.rec.Stats()}
}

// Registry exposes the network's metric registry (built on first use), so
// callers can mount it on their own telemetry server.
func (n *Network) Registry() *telemetry.Registry {
	n.Telemetry()
	return n.telReg
}
