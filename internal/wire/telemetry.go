package wire

import (
	"net/http"
	"strconv"
	"time"

	"difane/internal/core"
	"difane/internal/packet"
	"difane/internal/proto"
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
	//	/metrics      Prometheus text exposition (docs/METRICS.md lists the series)
	//	/vars         expvar-style JSON
	//	/trace        flight-recorder dump with filters
	//	/journeys     sampled packets' end-to-end journeys
	//	/status       the cluster status report
	//	/ha           controller replicas and per-switch BFD sessions
	//	/convergence  policy-update timelines
	//	/health       the SLO watchdog's rule statuses
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
	// DisableHealth turns the watchdog ticker off. The watchdog itself
	// still exists: EvalOnce-driven tests and /health keep working.
	DisableHealth bool
}

// flowOf projects a packet header onto the trace event flow tuple.
func flowOf(h *packet.Header) telemetry.FlowTuple {
	return telemetry.Tuple(h.IPSrc, h.IPDst, h.TPSrc, h.TPDst, h.IPProto)
}

// initTelemetry builds the probe, registers the cluster's series on its
// registry and attaches the TCAM install/evict hooks. Called after the
// assignment pre-installs (so boot-time rule pushes don't flood the rings)
// and before any switch goroutine starts (the hook-set-before-sharing
// contract).
func (c *Cluster) initTelemetry() {
	t := &c.cfg.Telemetry
	c.Probe = telemetry.NewProbe(telemetry.ProbeConfig{
		Nodes:       append(append([]uint32(nil), c.cfg.Switches...), telemetry.ClusterNode),
		TraceBuffer: t.TraceBuffer, Tracing: t.Tracing, TraceSample: t.TraceSample,
	})
	for _, n := range c.nodes {
		c.attachTableHooks(n)
	}
	c.registerMetrics()
}

// counterTotals snapshots the disturbed-traffic counters the convergence
// tracker diffs across a policy-update window. Dropped sums the shards'
// Drops.Lost, as Measurements does.
func (c *Cluster) counterTotals() telemetry.CounterTotals {
	var t telemetry.CounterTotals
	add := func(s *nodeStats) {
		t.Dropped += s.dropHole.Load() + s.dropQueue.Load() + s.dropUnreachable.Load() + s.dropRedirectShed.Load()
		t.Redirects += s.redirects.Load()
		t.Shed += s.dropRedirectShed.Load() + s.cacheInstallsShed.Load()
	}
	add(c.ext)
	for _, n := range c.nodes {
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
			c.Watchdog().EvalOnce(nowNS())
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
	// No packet owns these events, so they record as an unsampled packet's
	// spans do.
	record := func() bool { return c.TracePkt(0) }
	for _, t := range []proto.Table{proto.TableCache, proto.TableAuthority, proto.TablePartition} {
		table := n.sw.Table(t)
		code := uint8(t) // proto table numbering matches the telemetry codes
		table.OnInstall = func(rule uint64) {
			if record() {
				c.Span(telemetry.Event{
					Kind: telemetry.EvInstall, Node: id, Table: code, RuleID: rule,
				})
			}
		}
		table.OnEvict = func(rule uint64) {
			if record() {
				c.Span(telemetry.Event{
					Kind: telemetry.EvEvict, Node: id, Table: code, RuleID: rule,
				})
			}
		}
		table.OnExpire = func(rule uint64) {
			if record() {
				c.Span(telemetry.Event{
					Kind: telemetry.EvExpire, Node: id, Table: code, RuleID: rule,
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
	srv, err := telemetry.Serve(c.cfg.Telemetry.Addr, c.Registry(), c.Recorder(),
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

// ConvergenceHandler serves the epoch convergence timelines as JSON.
func (c *Cluster) ConvergenceHandler() http.Handler {
	return jsonHandler(func() any { return c.Convergence().View(nowNS()) })
}

// HealthHandler serves the watchdog's latest rule statuses as JSON.
func (c *Cluster) HealthHandler() http.Handler {
	return jsonHandler(func() any { return c.Watchdog().View(nowNS()) })
}

// TraceEvents snapshots the flight recorder through a filter.
func (c *Cluster) TraceEvents(f telemetry.Filter) []telemetry.Event {
	return c.Recorder().Events(f)
}

// TelemetryAddr returns the bound HTTP endpoint address, or "" when no
// endpoint was configured.
func (c *Cluster) TelemetryAddr() string {
	if c.tsrv == nil {
		return ""
	}
	return c.tsrv.Addr()
}

// registerMetrics registers the shared measurement schema (collected from
// a Measurements() merge per series: O(shards × buckets), never the
// forwarding path's cost) and what only wire mode has: the per-switch
// series and BFD churn.
func (c *Cluster) registerMetrics() {
	reg := c.Registry()
	core.RegisterMeasurements(reg, c.Measurements)
	c.cache.RegisterMetrics(reg)

	// Per-switch series, labeled by switch ID.
	ids := c.SwitchIDs()
	perSwitch := func(name, help string, typ telemetry.MetricType, fn func(*node) float64) {
		reg.Register(name, help, typ, func() []telemetry.Point {
			pts := make([]telemetry.Point, 0, len(ids))
			for _, id := range ids {
				n, _ := c.node(id)
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
	perSwitch("difane_switch_authority_hits_total", "Packets the authority table answered: redirects served, and classifications at an authority switch.",
		telemetry.TypeCounter, func(n *node) float64 { return float64(n.sw.Stats.AuthorityHits.Load()) })
	perSwitch("difane_switch_partition_hits_total", "Classifications terminated by the partition table.",
		telemetry.TypeCounter, func(n *node) float64 { return float64(n.sw.Stats.PartitionHits.Load()) })
	perSwitch("difane_switch_cache_entries", "Installed cache rules.",
		telemetry.TypeGauge, func(n *node) float64 { return float64(n.sw.Table(proto.TableCache).Len()) })
	perSwitch("difane_switch_cache_evictions_total", "Cache entries evicted for capacity.",
		telemetry.TypeCounter, func(n *node) float64 { return float64(n.sw.Table(proto.TableCache).Evictions.Load()) })
	perSwitch("difane_switch_queue_depth", "Occupancy of the deepest input ring (each holds at most QueueDepth frames).",
		telemetry.TypeGauge, func(n *node) float64 { return float64(n.queueLen()) })
	perSwitch("difane_switch_peak_queue_depth", "High-water mark of the queue depth: the deepest any input ring has been.",
		telemetry.TypeGauge, func(n *node) float64 { return float64(n.peakQueue.Load()) })

	// BFD session churn, summed across every controller-side session — the
	// bfd-flap health rule's input.
	reg.RegisterFunc("difane_bfd_transitions_total", "BFD session state transitions across all sessions.",
		telemetry.TypeCounter, func() float64 {
			var total uint64
			for _, info := range c.BFDSessions() {
				total += info.Transitions
			}
			return float64(total)
		})
}

func switchLabel(id uint32) string { return strconv.FormatUint(uint64(id), 10) }
