package wire

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"difane/internal/metrics"
	"difane/internal/packet"
	"difane/internal/proto"
	"difane/internal/tcam"
	"difane/internal/telemetry"
)

// TelemetryConfig tunes the cluster's observability layer. The flight
// recorder and metric registry always exist (a scrape costs nothing until
// read); this config controls whether tracing starts enabled and whether
// an HTTP endpoint serves them.
type TelemetryConfig struct {
	// Addr, when non-empty, serves the telemetry HTTP endpoint on this
	// address (":0" picks an ephemeral port — read it back with
	// Cluster.TelemetryAddr):
	//
	//	/metrics      Prometheus text exposition
	//	/vars         expvar-style JSON
	//	/trace        flight-recorder dump with filters
	//	/status       the cluster status report
	//	/debug/pprof  the standard profiling endpoints
	Addr string
	// Tracing starts the flight recorder enabled. Off, the data plane pays
	// one atomic load per would-be event; on, events are recorded into
	// per-node lock-free rings that never block forwarding. Toggle at
	// runtime with Cluster.SetTracing.
	Tracing bool
	// TraceBuffer is each node's ring capacity in events, rounded up to a
	// power of two (default 4096). Old events are overwritten when a ring
	// wraps; the overwrite count is exported as difane_trace_dropped_total.
	TraceBuffer int
	// TraceSample turns on per-packet journey sampling: 1 in N injected
	// packets (chosen by a deterministic hash of flow and sequence) is
	// stamped with a trace ID that follows it across every hop, so its
	// span events assemble into an end-to-end journey at /journeys. 0
	// disables sampling — the injection path then pays one atomic load.
	// Requires Tracing (or a later SetTracing(true)) for spans to record.
	// Adjustable at runtime with Cluster.SetTraceSample.
	TraceSample int
	// Health tunes the SLO watchdog's rule thresholds (zero values take
	// the documented defaults).
	Health telemetry.HealthConfig
	// DisableHealth turns the watchdog ticker off. The watchdog itself
	// still exists: EvalOnce-driven tests and /health keep working.
	DisableHealth bool
}

func (t *TelemetryConfig) applyDefaults() {
	if t.TraceBuffer <= 0 {
		t.TraceBuffer = 4096
	}
	if t.TraceSample < 0 {
		t.TraceSample = 0
	}
}

// flowOf projects a packet header onto the trace event flow tuple.
func flowOf(h *packet.Header) telemetry.FlowTuple {
	return telemetry.Tuple(h.IPSrc, h.IPDst, h.TPSrc, h.TPDst, h.IPProto)
}

// initTelemetry builds the recorder and attaches the TCAM install/evict
// hooks. Called after the assignment pre-installs (so boot-time rule
// pushes don't flood the rings) and before any switch goroutine starts
// (the hook-set-before-sharing contract).
func (c *Cluster) initTelemetry() {
	ids := make([]uint32, 0, len(c.switches)+1)
	for id := range c.switches {
		ids = append(ids, id)
	}
	ids = append(ids, telemetry.ClusterNode)
	c.rec = telemetry.NewRecorder(ids, c.cfg.Telemetry.TraceBuffer, c.cfg.Telemetry.Tracing)
	c.sampler = telemetry.NewSampler(c.cfg.Telemetry.TraceSample)
	c.conv = telemetry.NewConvergence(0)
	for _, n := range c.switches {
		c.attachTableHooks(n)
	}
	c.reg = telemetry.NewRegistry()
	c.buildRegistry()
	c.conv.RegisterMetrics(c.reg)
	// The watchdog scrapes the registry it is registered into; its EvalOnce
	// snapshots before locking, so its own gauges stay deadlock-free.
	c.wd = telemetry.NewWatchdog(c.reg, telemetry.DefaultHealthRules(c.cfg.Telemetry.Health))
	c.wd.RegisterMetrics(c.reg)
	if c.cachePol != nil {
		c.cachePol.RegisterMetrics(c.reg)
	}
}

// counterTotals snapshots the disturbed-traffic counters the convergence
// tracker diffs across a policy-update window.
func (c *Cluster) counterTotals() telemetry.CounterTotals {
	t := telemetry.CounterTotals{Dropped: c.dropped.Load()}
	add := func(s *nodeStats) {
		t.Redirects += s.redirects.Load()
		t.Shed += s.dropRedirectShed.Load() + s.cacheInstallsShed.Load()
	}
	add(c.ext)
	for _, n := range c.switches {
		add(n.stats)
	}
	return t
}

// healthLoop drives the SLO watchdog on its ticker until the cluster stops.
func (c *Cluster) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(healthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.wd.EvalOnce(nowNS())
		}
	}
}

// attachTableHooks publishes install/evict/expire trace events for one
// switch's three rule tables. The hooks fire per rule-table mutation —
// a firehose under cache churn — so they record only in full-tracing
// mode: once journey sampling is on, the recording budget belongs to
// sampled packets (whose installs land in their journeys via the traced
// EvInstall in the CacheInstall path).
func (c *Cluster) attachTableHooks(n *node) {
	id := n.id
	record := func() bool { return c.rec.Enabled() && c.sampler.Rate() == 0 }
	for _, t := range []proto.Table{proto.TableCache, proto.TableAuthority, proto.TablePartition} {
		table := n.sw.Table(t)
		code := uint8(t) // proto table numbering matches the telemetry codes
		table.OnInstall = func(e tcam.Entry) {
			if record() {
				c.rec.Publish(telemetry.Event{
					Kind: telemetry.EvInstall, Node: id, Table: code, RuleID: e.Rule.ID,
				})
			}
		}
		table.OnEvict = func(e tcam.Entry) {
			if record() {
				c.rec.Publish(telemetry.Event{
					Kind: telemetry.EvEvict, Node: id, Table: code, RuleID: e.Rule.ID,
				})
			}
		}
		table.OnExpire = func(e tcam.Entry) {
			if record() {
				c.rec.Publish(telemetry.Event{
					Kind: telemetry.EvExpire, Node: id, Table: code, RuleID: e.Rule.ID,
				})
			}
		}
	}
}

// startTelemetryServer binds the HTTP endpoint when configured.
func (c *Cluster) startTelemetryServer() error {
	if c.cfg.Telemetry.Addr == "" {
		return nil
	}
	srv, err := telemetry.Serve(c.cfg.Telemetry.Addr, c.reg, c.rec,
		map[string]http.Handler{
			"/status":      c.StatusHandler(),
			"/ha":          c.HAHandler(),
			"/convergence": c.ConvergenceHandler(),
			"/health":      c.HealthHandler(),
		})
	if err != nil {
		return err
	}
	c.tsrv = srv
	return nil
}

// tracePkt reports whether a per-packet span should record: every packet
// in full-tracing mode, but only trace-stamped packets once journey
// sampling is on — 1-in-N sampling must cost 1-in-N of the recording,
// not all of it. Non-packet events (installs, deaths, elections) keep
// gating on rec.Enabled alone.
func (c *Cluster) tracePkt(trace uint64) bool {
	if trace != 0 {
		return c.rec.Enabled()
	}
	// Unsampled packet: records only in full-tracing mode. Checking the
	// rate first keeps the common sampled-mode case to one atomic load.
	return c.sampler.Rate() == 0 && c.rec.Enabled()
}

// SetTracing toggles the flight recorder at runtime.
func (c *Cluster) SetTracing(on bool) { c.rec.SetEnabled(on) }

// TracingEnabled reports the flight recorder's state.
func (c *Cluster) TracingEnabled() bool { return c.rec.Enabled() }

// SetTraceSample changes the journey sampling rate at runtime (1-in-n,
// 0 disables).
func (c *Cluster) SetTraceSample(n int) { c.sampler.SetRate(n) }

// TraceSampleRate returns the current 1-in-N journey sampling rate.
func (c *Cluster) TraceSampleRate() int { return c.sampler.Rate() }

// Convergence exposes the per-epoch policy-update tracker.
func (c *Cluster) Convergence() *telemetry.Convergence { return c.conv }

// Watchdog exposes the SLO health watchdog.
func (c *Cluster) Watchdog() *telemetry.Watchdog { return c.wd }

// ConvergenceHandler serves the epoch convergence timelines as JSON.
func (c *Cluster) ConvergenceHandler() http.Handler {
	return jsonHandler(func() any { return c.conv.View(nowNS()) })
}

// HealthHandler serves the watchdog's latest rule statuses as JSON.
func (c *Cluster) HealthHandler() http.Handler {
	return jsonHandler(func() any { return c.wd.View(nowNS()) })
}

// Journeys assembles end-to-end journeys from the flight recorder.
func (c *Cluster) Journeys(f telemetry.JourneyFilter) ([]telemetry.Journey, telemetry.JourneyStats) {
	if f.NowNS == 0 {
		f.NowNS = c.rec.Now()
	}
	return telemetry.AssembleJourneys(c.rec, f)
}

// Recorder exposes the flight recorder (tests, embedding servers).
func (c *Cluster) Recorder() *telemetry.Recorder { return c.rec }

// Registry exposes the metric registry.
func (c *Cluster) Registry() *telemetry.Registry { return c.reg }

// TraceEvents snapshots the flight recorder through a filter.
func (c *Cluster) TraceEvents(f telemetry.Filter) []telemetry.Event {
	return c.rec.Events(f)
}

// Telemetry returns one scrape of the registry plus recorder accounting —
// the Deployment.Telemetry() surface.
func (c *Cluster) Telemetry() *telemetry.Snapshot {
	return &telemetry.Snapshot{Metrics: c.reg.Snapshot(), Trace: c.rec.Stats()}
}

// TelemetryAddr returns the bound HTTP endpoint address, or "" when no
// endpoint was configured.
func (c *Cluster) TelemetryAddr() string {
	if c.tsrv == nil {
		return ""
	}
	return c.tsrv.Addr()
}

// sumStats folds one counter across every measurement shard.
func (c *Cluster) sumStats(f func(*nodeStats) uint64) float64 {
	total := f(c.ext)
	for _, n := range c.switches {
		total += f(n.stats)
	}
	return float64(total)
}

// mergedDelay merges one latency distribution across every shard into an
// independent Dist. Each shard is cloned under its latMu: a Dist is
// internally synchronized once initialized, but its lazy first-Add
// allocation is only ordered against readers by that lock (see nodeStats).
func (c *Cluster) mergedDelay(sel func(*nodeStats) *metrics.Dist) telemetry.SummaryView {
	var d metrics.Dist
	merge := func(s *nodeStats) {
		s.latMu.Lock()
		one := sel(s).Clone()
		s.latMu.Unlock()
		d.Merge(&one)
	}
	merge(c.ext)
	for _, n := range c.switches {
		merge(n.stats)
	}
	return telemetry.DistSummary(&d)
}

// buildRegistry registers the cluster's metric schema. Everything is
// collected at scrape time from the same sharded atomics the data plane
// writes, so scrapes cost the scraper, never the forwarding path.
func (c *Cluster) buildRegistry() {
	reg := c.reg
	counter := func(name, help string, fn func() float64) {
		reg.RegisterFunc(name, help, telemetry.TypeCounter, fn)
	}
	gauge := func(name, help string, fn func() float64) {
		reg.RegisterFunc(name, help, telemetry.TypeGauge, fn)
	}

	counter("difane_injected_total", "Packets accepted at an ingress queue.",
		func() float64 { return float64(c.injected.Load()) })
	counter("difane_delivered_total", "Packets delivered to their egress.",
		func() float64 { return c.sumStats(func(s *nodeStats) uint64 { return s.delivered.Load() }) })
	counter("difane_dropped_total", "Packets lost (queues, holes, unreachable, shed).",
		func() float64 { return float64(c.dropped.Load()) })
	counter("difane_setups_completed_total", "Flow setups resolved at an authority.",
		func() float64 { return c.sumStats(func(s *nodeStats) uint64 { return s.setupsCompleted.Load() }) })
	counter("difane_failovers_local_total", "Ingress-local partition-rule repoints onto a backup authority.",
		func() float64 { return c.sumStats(func(s *nodeStats) uint64 { return s.failoversLocal.Load() }) })
	counter("difane_cache_installs_shed_total", "Cache installs shed: install token bucket, full ingress queue, or dead ingress.",
		func() float64 { return c.sumStats(func(s *nodeStats) uint64 { return s.cacheInstallsShed.Load() }) })

	reg.Register("difane_drops_total", "Terminal packet losses by kind.", telemetry.TypeCounter,
		func() []telemetry.Point {
			kind := func(k string, f func(*nodeStats) uint64) telemetry.Point {
				return telemetry.Point{
					Labels: []telemetry.Label{{Key: "kind", Value: k}},
					Value:  c.sumStats(f),
				}
			}
			return []telemetry.Point{
				kind("policy", func(s *nodeStats) uint64 { return s.dropPolicy.Load() }),
				kind("hole", func(s *nodeStats) uint64 { return s.dropHole.Load() }),
				kind("queue", func(s *nodeStats) uint64 { return s.dropQueue.Load() }),
				kind("unreachable", func(s *nodeStats) uint64 { return s.dropUnreachable.Load() }),
				kind("redirect-shed", func(s *nodeStats) uint64 { return s.dropRedirectShed.Load() }),
			}
		})

	// Control-plane (cold) counters.
	counter("difane_authority_deaths_total", "Switches the failure detector declared dead.",
		func() float64 { return float64(c.cold.authorityDeaths.Load()) })
	counter("difane_failovers_promoted_total", "Partition rules withdrawn by controller-driven promotion.",
		func() float64 { return float64(c.cold.failoversPromoted.Load()) })
	counter("difane_control_reconnects_total", "Control connections re-established.",
		func() float64 { return float64(c.cold.controlReconnects.Load()) })
	counter("difane_controller_outages_total", "Controller losses ridden out.",
		func() float64 { return float64(c.cold.controllerOutages.Load()) })
	counter("difane_stale_installs_rejected_total", "FlowMods refused by epoch fencing.",
		func() float64 { return float64(c.cold.staleInstallsRejected.Load()) })
	counter("difane_leader_elections_total", "Controller leader elections completed.",
		func() float64 { return float64(c.cold.leaderElections.Load()) })

	gauge("difane_ha_leader", "Current leader replica id (-1 when none holds office).",
		func() float64 { return float64(c.Leader()) })
	gauge("difane_epoch", "Controller fencing epoch.",
		func() float64 { return float64(c.epoch.Load()) })
	gauge("difane_controller_down", "1 while a simulated controller outage is active.",
		func() float64 {
			if c.ctrlDown.Load() {
				return 1
			}
			return 0
		})

	// Per-switch series, labeled by switch ID.
	ids := make([]uint32, 0, len(c.switches))
	for id := range c.switches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	perSwitch := func(name, help string, typ telemetry.MetricType, fn func(*node) float64) {
		reg.Register(name, help, typ, func() []telemetry.Point {
			pts := make([]telemetry.Point, 0, len(ids))
			for _, id := range ids {
				n := c.switches[id]
				pts = append(pts, telemetry.Point{
					Labels: []telemetry.Label{{Key: "switch", Value: switchLabel(id)}},
					Value:  fn(n),
				})
			}
			return pts
		})
	}
	perSwitch("difane_switch_cache_hits_total", "Classifications terminated by the cache table.",
		telemetry.TypeCounter, func(n *node) float64 { return float64(n.sw.Stats.CacheHits.Load()) })
	perSwitch("difane_switch_authority_hits_total", "Classifications terminated by the authority table.",
		telemetry.TypeCounter, func(n *node) float64 { return float64(n.sw.Stats.AuthorityHits.Load()) })
	perSwitch("difane_switch_partition_hits_total", "Classifications terminated by the partition table.",
		telemetry.TypeCounter, func(n *node) float64 { return float64(n.sw.Stats.PartitionHits.Load()) })
	perSwitch("difane_switch_misses_total", "Classifications matching no table (policy holes).",
		telemetry.TypeCounter, func(n *node) float64 { return float64(n.sw.Stats.Misses.Load()) })
	perSwitch("difane_switch_cache_entries", "Installed cache rules.",
		telemetry.TypeGauge, func(n *node) float64 { return float64(n.sw.Table(proto.TableCache).Len()) })
	perSwitch("difane_switch_cache_evictions_total", "Cache entries evicted for capacity.",
		telemetry.TypeCounter, func(n *node) float64 { return float64(n.sw.Table(proto.TableCache).Evictions.Load()) })
	perSwitch("difane_switch_queue_depth", "Current input-ring occupancy (all rings).",
		telemetry.TypeGauge, func(n *node) float64 { return float64(n.queueLen()) })
	perSwitch("difane_switch_peak_queue_depth", "Data-queue high-water mark.",
		telemetry.TypeGauge, func(n *node) float64 { return float64(n.peakQueue.Load()) })
	perSwitch("difane_switch_epoch", "The switch's accepted install fence.",
		telemetry.TypeGauge, func(n *node) float64 { return float64(n.epoch.Load()) })
	perSwitch("difane_switch_alive", "1 while the failure detector believes the switch serves traffic.",
		telemetry.TypeGauge, func(n *node) float64 {
			if !n.killed.Load() && n.alive.Load() {
				return 1
			}
			return 0
		})

	// Latency summaries, merged across shards at scrape time.
	reg.RegisterSummary("difane_first_packet_delay_seconds",
		"Delivery latency of flow-setup packets (via an authority).",
		func() telemetry.SummaryView {
			return c.mergedDelay(func(s *nodeStats) *metrics.Dist { return &s.firstDelay })
		})
	reg.RegisterSummary("difane_later_packet_delay_seconds",
		"Delivery latency of cache-hit packets.",
		func() telemetry.SummaryView {
			return c.mergedDelay(func(s *nodeStats) *metrics.Dist { return &s.laterDelay })
		})
	reg.RegisterSummary("difane_failover_detection_seconds",
		"Fault-injection to death-verdict detection latency.",
		func() telemetry.SummaryView {
			c.cold.haMu.Lock()
			d := c.cold.failoverDetect.Clone()
			c.cold.haMu.Unlock()
			return telemetry.DistSummary(&d)
		})
	reg.RegisterSummary("difane_leader_election_seconds",
		"Leader-kill to new-leader-seated election duration.",
		func() telemetry.SummaryView {
			c.cold.haMu.Lock()
			d := c.cold.electionTime.Clone()
			c.cold.haMu.Unlock()
			return telemetry.DistSummary(&d)
		})

	// The recorder's own accounting.
	gauge("difane_trace_enabled", "1 while the flight recorder is recording.",
		func() float64 {
			if c.rec.Enabled() {
				return 1
			}
			return 0
		})
	counter("difane_trace_writes_total", "Trace events published.",
		func() float64 { return float64(c.rec.Stats().Writes) })
	counter("difane_trace_dropped_total", "Trace events overwritten by ring wraparound.",
		func() float64 { return float64(c.rec.Stats().Dropped) })
	gauge("difane_trace_sample", "1-in-N journey sampling rate (0 = off).",
		func() float64 { return float64(c.sampler.Rate()) })

	// BFD session churn, summed across every controller-side session — the
	// bfd-flap health rule's input.
	counter("difane_bfd_transitions_total", "BFD session state transitions across all sessions.",
		func() float64 {
			var total uint64
			for _, info := range c.BFDSessions() {
				total += info.Transitions
			}
			return float64(total)
		})
}

func switchLabel(id uint32) string { return strconv.FormatUint(uint64(id), 10) }
