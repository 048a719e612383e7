package telemetry

import "difane/internal/flowspace"

// Probe is everything a backend needs to be traced and scraped, written
// once: the flight recorder, the per-packet trace sampler, the
// policy-update convergence tracker, the SLO watchdog and the metric
// registry they all export into. The simulator, the reactive baseline and
// wire mode each embed one; they differ only in the clock they hand it.
// Everything is built eagerly, so the hot-path gates are nil-free atomic
// loads and Telemetry works on every deployment from construction.
type Probe struct {
	rec     *Recorder
	sampler *Sampler
	conv    *Convergence
	wd      *Watchdog
	reg     *Registry
	now     func() int64
}

// ProbeConfig is what a backend's own config says about observability.
type ProbeConfig struct {
	// Nodes lists the node IDs that get a trace ring of TraceBuffer events
	// (default 4096).
	Nodes       []uint32
	TraceBuffer int
	// Tracing starts the flight recorder enabled; TraceSample is the
	// 1-in-N per-packet journey sampling rate (0 = off).
	Tracing     bool
	TraceSample int
	// Health tunes the watchdog's default rules.
	Health HealthConfig
	// Now stamps span events and defaults the journey freshness clock:
	// VirtualClock for a discrete-event backend, nil for the recorder's
	// own wall clock.
	Now func() int64
}

// VirtualClock turns a simulator's clock (seconds) into a Probe clock:
// nanoseconds of virtual time, floored at 1 so Recorder.Publish never
// mistakes a t=0 event for "stamp me with wall time".
func VirtualClock(seconds func() float64) func() int64 {
	return func() int64 {
		return max(1, int64(seconds()*1e9))
	}
}

// NewProbe builds the probe and registers the series it owns: the
// recorder's accounting, the convergence tracker's difane_epoch_* and the
// watchdog's difane_health_*. The embedding backend registers its
// measurements on Registry() beside them.
func NewProbe(cfg ProbeConfig) *Probe {
	p := &Probe{
		rec:     NewRecorder(cfg.Nodes, cfg.TraceBuffer, cfg.Tracing),
		sampler: NewSampler(cfg.TraceSample),
		conv:    NewConvergence(0),
		reg:     NewRegistry(),
		now:     cfg.Now,
	}
	if p.now == nil {
		p.now = p.rec.Now
	}
	p.reg.RegisterFunc("difane_trace_enabled",
		"1 while the flight recorder accepts events.", TypeGauge,
		func() float64 {
			if p.rec.Enabled() {
				return 1
			}
			return 0
		})
	p.reg.RegisterFunc("difane_trace_writes_total",
		"Events ever published to the flight recorder.", TypeCounter,
		func() float64 { return float64(p.rec.Stats().Writes) })
	p.reg.RegisterFunc("difane_trace_dropped_total",
		"Flight-recorder events lost to ring wraparound.", TypeCounter,
		func() float64 { return float64(p.rec.Stats().Dropped) })
	p.reg.RegisterFunc("difane_trace_sample",
		"Per-packet trace sampling rate (1-in-N, 0 = off).", TypeGauge,
		func() float64 { return float64(p.sampler.Rate()) })
	p.conv.RegisterMetrics(p.reg)
	// The watchdog scrapes the registry it is registered into; its EvalOnce
	// snapshots before locking, so its own gauges stay deadlock-free.
	p.wd = NewWatchdog(p.reg, DefaultHealthRules(cfg.Health))
	p.wd.RegisterMetrics(p.reg)
	return p
}

// TupleOfKey projects a flowspace key onto the trace event flow tuple.
func TupleOfKey(k flowspace.Key) FlowTuple {
	return Tuple(
		uint32(k[flowspace.FIPSrc]), uint32(k[flowspace.FIPDst]),
		uint16(k[flowspace.FTPSrc]), uint16(k[flowspace.FTPDst]),
		uint8(k[flowspace.FIPProto]))
}

// TraceID mints the trace ID of packet seq of flow k, or 0 when the
// packet is unsampled. The flow hash is only computed when sampling is
// on, so the disabled cost is one atomic load.
func (p *Probe) TraceID(k flowspace.Key, seq uint64) uint64 {
	if p.sampler.Rate() == 0 {
		return 0
	}
	return p.sampler.TraceID(TupleOfKey(k).Hash, seq)
}

// TracePkt reports whether a per-packet span should record: every packet
// in full-tracing mode, but only trace-stamped packets once journey
// sampling is on — 1-in-N sampling must cost 1-in-N of the recording, not
// all of it. Events that belong to no packet (installs, deaths,
// elections) go through Span, which gates on the recorder alone.
func (p *Probe) TracePkt(trace uint64) bool {
	if trace != 0 {
		return p.rec.Enabled()
	}
	// Unsampled packet: records only in full-tracing mode. Checking the
	// rate first keeps the common sampled-mode case to one atomic load.
	return p.sampler.Rate() == 0 && p.rec.Enabled()
}

// Span publishes one trace event stamped with the probe's clock. With
// tracing off it costs one atomic load.
func (p *Probe) Span(ev Event) {
	if p.rec.Enabled() {
		p.publish(ev)
	}
}

// publish is Span's slow half, kept out of it so Span inlines.
func (p *Probe) publish(ev Event) {
	if ev.TS == 0 {
		ev.TS = p.now()
	}
	p.rec.Publish(ev)
}

// Now reads the probe's clock (ns).
func (p *Probe) Now() int64 { return p.now() }

// SetTracing toggles the flight recorder at runtime.
func (p *Probe) SetTracing(on bool) { p.rec.SetEnabled(on) }

// TracingEnabled reports the flight recorder's state.
func (p *Probe) TracingEnabled() bool { return p.rec.Enabled() }

// SetTraceSample changes the 1-in-N per-packet journey sampling rate at
// runtime (0 = off).
func (p *Probe) SetTraceSample(rate int) { p.sampler.SetRate(rate) }

// TraceSampleRate returns the current 1-in-N sampling rate (0 = off).
func (p *Probe) TraceSampleRate() int { return p.sampler.Rate() }

// Recorder exposes the flight recorder.
func (p *Probe) Recorder() *Recorder { return p.rec }

// Registry exposes the metric registry, for backends to register their
// series on and callers to mount on their own telemetry server.
func (p *Probe) Registry() *Registry { return p.reg }

// Convergence exposes the per-epoch policy-update tracker.
func (p *Probe) Convergence() *Convergence { return p.conv }

// Watchdog exposes the SLO health watchdog. Wire mode drives it from a
// ticker; a simulator has none, so drive EvalOnce at the virtual instants
// of interest.
func (p *Probe) Watchdog() *Watchdog { return p.wd }

// Journeys assembles end-to-end packet journeys from the flight recorder.
// The filter's freshness clock defaults to the probe's.
func (p *Probe) Journeys(f JourneyFilter) ([]Journey, JourneyStats) {
	if f.NowNS == 0 {
		f.NowNS = p.now()
	}
	return AssembleJourneys(p.rec, f)
}

// Telemetry returns one scrape of the registry plus the flight recorder's
// accounting — the Deployment.Telemetry() surface.
func (p *Probe) Telemetry() *Snapshot {
	return &Snapshot{Metrics: p.reg.Snapshot(), Trace: p.rec.Stats()}
}
