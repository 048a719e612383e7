// Package subscriber models a BNG-style subscriber population at the
// scale the ROADMAP's north star demands: millions of subscribers whose
// sessions arrive and depart as a Poisson process (churn that invalidates
// caches), whose popularity follows a Zipf law (a few subscribers carry
// most traffic), who move between ingress switches mid-session (the
// paper's §5 host mobility), whose aggregate load swings diurnally, and
// who occasionally misbehave — cache-thrashing scans and flash crowds
// concentrated on one flow-space partition.
//
// The engine is O(active sessions) in memory, not O(population): a
// subscriber's flow identity and home ingress are pure functions of the
// subscriber index (a splitmix64 stream keyed by the engine seed), so a
// 10M-subscriber population costs nothing until its members show up.
// Everything is driven by one seeded PRNG — the same seed replays the
// same sessions, packets, moves, and phase schedule, which is what lets
// the soak harness (soak.go) sample packet verdicts against the oracle.
package subscriber

import (
	"math"
	"math/rand"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/workload"
)

// Config tunes the session engine. All rates are per modeled second.
type Config struct {
	// Subscribers is the population size popularity is drawn over, Zipf
	// with exponent zipfAlpha. Memory does not scale with it — only the
	// active session set is stored.
	Subscribers int
	// ArrivalRate is the Poisson session arrival rate (sessions/sec,
	// before diurnal and phase modulation; default 1000).
	ArrivalRate float64
	// MeanSessionLife is the exponential mean session lifetime in seconds
	// (default 2). Active sessions ≈ ArrivalRate × MeanSessionLife.
	MeanSessionLife float64
	// PacketRate is each active session's packet emission rate (default 2;
	// every session additionally emits one packet on arrival and one on
	// each move).
	PacketRate float64
	// MobilityRate is how many session moves between ingress switches
	// happen per second across the whole active set (default 0: static
	// hosts).
	MobilityRate float64
	// DiurnalAmp modulates the arrival rate by 1 + Amp·sin(2πt/Period)
	// (0..1; default 0: flat load).
	DiurnalAmp float64
	// DiurnalPeriod is the diurnal cycle length in modeled seconds
	// (default: 60).
	DiurnalPeriod float64
	// MaxActive hard-bounds the concurrent session set (memory guard;
	// default 1<<20). Arrivals past the bound are suppressed and counted.
	MaxActive int
	// Seed makes the whole run deterministic.
	Seed int64
}

// zipfAlpha skews subscriber popularity.
const zipfAlpha = 1.3

func (c Config) withDefaults() Config {
	if c.Subscribers < 1 {
		c.Subscribers = 1 << 20
	}
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 1000
	}
	if c.MeanSessionLife <= 0 {
		c.MeanSessionLife = 2
	}
	if c.PacketRate <= 0 {
		c.PacketRate = 2
	}
	if c.DiurnalPeriod <= 0 {
		c.DiurnalPeriod = 60
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 1 << 20
	}
	return c
}

// session is one active subscriber session. 64 bytes, swap-deleted.
type session struct {
	sub      uint64
	key      flowspace.Key
	ingress  uint32
	seq      uint64
	departAt float64
	credit   float64
}

// Tick is what one Advance step produced. Batch aliases an internal
// buffer valid until the next Advance call.
type Tick struct {
	Now        float64
	Phase      string
	PhaseIndex int
	// PhaseChanged is true when this tick crossed into a new phase.
	PhaseChanged bool
	// Done is true once the phase script is exhausted.
	Done  bool
	Batch []core.PacketIn
	// Arrivals/Departures/Moves/Suppressed count this tick's session
	// events; Active is the session count after them.
	Arrivals, Departures, Moves, Suppressed int
	Active                                  int
}

// Engine drives the subscriber population forward in modeled time.
type Engine struct {
	cfg    Config
	spec   *workload.Spec
	phases []Phase

	rng  *rand.Rand
	zipf *rand.Zipf

	now         float64
	nextArrival float64
	nextMove    float64

	sessions []session
	batch    []core.PacketIn

	phaseIdx   int
	phaseEnd   float64
	flashRule  int
	scanRule   int
	scanSerial uint64

	// Cumulative counters (whole run).
	totalSessions   uint64
	totalDepartures uint64
	totalMoves      uint64
	totalPackets    uint64
	totalSuppressed uint64
}

// NewEngine builds an engine over the spec's policy and edge switches.
// The phase script runs in order; an empty script means one endless
// steady phase.
func NewEngine(spec *workload.Spec, cfg Config, phases []Phase) *Engine {
	cfg = cfg.withDefaults()
	if len(phases) == 0 {
		phases = []Phase{Steady(math.Inf(1))}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	e := &Engine{
		cfg:    cfg,
		spec:   spec,
		phases: phases,
		rng:    rng,
		zipf:   rand.NewZipf(rng, zipfAlpha, 1, uint64(cfg.Subscribers-1)),
		// The flash crowd converges on one rule's region (→ one partition
		// neighborhood); scans walk a different rule so the two adversarial
		// patterns stress different flow-space corners.
		flashRule: rng.Intn(len(spec.Policy)),
		scanRule:  rng.Intn(len(spec.Policy)),
	}
	e.phaseEnd = phases[0].Duration
	e.nextArrival = e.rng.ExpFloat64() / e.arrivalRate(0)
	if cfg.MobilityRate > 0 {
		e.nextMove = e.rng.ExpFloat64() / cfg.MobilityRate
	} else {
		e.nextMove = math.Inf(1)
	}
	return e
}

// splitmix64 is the per-subscriber identity stream: cheap, stateless,
// well-mixed — a subscriber's flow key and home ingress derive from it
// without storing the population.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fillFrom expands one 64-bit identity into a full random header fill.
func fillFrom(h uint64) (out [flowspace.NumFields]uint64) {
	for i := range out {
		h = splitmix64(h)
		out[i] = h
	}
	return out
}

// subKey is subscriber sub's stable flow identity: a concrete header
// sampled inside one policy rule's region. Stable across sessions, so a
// popular subscriber's cache entries stay warm across churn.
func (e *Engine) subKey(sub uint64) flowspace.Key {
	h := splitmix64(uint64(e.cfg.Seed) ^ sub)
	r := e.spec.Policy[h%uint64(len(e.spec.Policy))]
	return r.Match.RandomKeyIn(fillFrom(h))
}

// subHome is subscriber sub's home ingress edge switch.
func (e *Engine) subHome(sub uint64) uint32 {
	h := splitmix64(uint64(e.cfg.Seed) ^ sub ^ 0xA5A5A5A5A5A5A5A5)
	return e.spec.Edges[h%uint64(len(e.spec.Edges))]
}

// keyInRule samples serial's concrete header inside rule ri's region.
func (e *Engine) keyInRule(ri int, serial uint64) flowspace.Key {
	h := splitmix64(uint64(e.cfg.Seed)*0x9E3779B9 + serial)
	return e.spec.Policy[ri].Match.RandomKeyIn(fillFrom(h))
}

func (e *Engine) phase() *Phase { return &e.phases[e.phaseIdx] }

// diurnal is the time-of-day load multiplier.
func (e *Engine) diurnal(t float64) float64 {
	if e.cfg.DiurnalAmp <= 0 {
		return 1
	}
	return 1 + e.cfg.DiurnalAmp*math.Sin(2*math.Pi*t/e.cfg.DiurnalPeriod)
}

// arrivalRate is the effective session arrival rate at time t.
func (e *Engine) arrivalRate(t float64) float64 {
	boost := 1.0
	if len(e.phases) > 0 {
		boost = e.phases[e.phaseIdx].arrivalBoost()
	}
	return e.cfg.ArrivalRate * e.diurnal(t) * boost
}

// Now returns the engine's modeled clock.
func (e *Engine) Now() float64 { return e.now }

// Active returns the live session count.
func (e *Engine) Active() int { return len(e.sessions) }

// TotalSessions returns cumulative session arrivals (the "modeled
// subscriber sessions" the acceptance gate counts).
func (e *Engine) TotalSessions() uint64 { return e.totalSessions }

// TotalMoves returns cumulative mobility events.
func (e *Engine) TotalMoves() uint64 { return e.totalMoves }

// TotalPackets returns cumulative packets emitted.
func (e *Engine) TotalPackets() uint64 { return e.totalPackets }

// TotalSuppressed returns arrivals refused by the MaxActive bound.
func (e *Engine) TotalSuppressed() uint64 { return e.totalSuppressed }

// Done reports whether the phase script has been fully consumed.
func (e *Engine) Done() bool { return e.phaseIdx >= len(e.phases) }

// spawn starts one session at time t and emits its first packet.
func (e *Engine) spawn(t float64, tick *Tick) {
	if len(e.sessions) >= e.cfg.MaxActive {
		e.totalSuppressed++
		tick.Suppressed++
		return
	}
	ph := e.phase()
	var s session
	switch ph.Kind {
	case PhaseFlashCrowd:
		// The crowd: many subscribers converging on a small hot key set
		// inside one rule's region — one partition soaks the misses.
		sub := e.zipf.Uint64()
		hot := ph.hotKeys()
		s = session{
			sub:     sub,
			key:     e.keyInRule(e.flashRule, sub%uint64(hot)),
			ingress: e.subHome(sub),
		}
	case PhaseScan:
		// The scanner: every session a never-seen key, walking the policy's
		// regions round-robin — each one a cache miss under exact caching,
		// and under cover caching the walk still touches every region so a
		// capacity-bounded TCAM churns instead of settling.
		e.scanSerial++
		sub := uint64(e.cfg.Subscribers) + e.scanSerial // outside the population
		ri := (e.scanRule + int(e.scanSerial)) % len(e.spec.Policy)
		s = session{
			sub:     sub,
			key:     e.keyInRule(ri, 0x5CA7^e.scanSerial),
			ingress: e.subHome(sub),
		}
	default:
		sub := e.zipf.Uint64()
		s = session{sub: sub, key: e.subKey(sub), ingress: e.subHome(sub)}
	}
	life := e.rng.ExpFloat64() * e.cfg.MeanSessionLife * ph.lifeScale()
	s.departAt = t + life
	e.sessions = append(e.sessions, s)
	e.totalSessions++
	tick.Arrivals++
	e.emit(&e.sessions[len(e.sessions)-1], t)
}

// packetSize is every modeled packet's size in bytes.
const packetSize = 400

// emit appends one packet from session s to the tick batch.
func (e *Engine) emit(s *session, at float64) {
	e.batch = append(e.batch, core.PacketIn{
		At:      at,
		Ingress: s.ingress,
		Key:     s.key,
		Size:    packetSize,
		Seq:     s.seq,
	})
	s.seq++
	e.totalPackets++
}

// Advance steps the engine dt modeled seconds and returns the tick's
// packet batch plus session-event counts. Steps are processed in a fixed
// order (phase boundary, arrivals, moves, departures, steady packets), so
// a seed fully determines the run.
func (e *Engine) Advance(dt float64) Tick {
	tick := Tick{}
	if e.Done() {
		tick.Now, tick.Done = e.now, true
		tick.Phase = "done"
		return tick
	}
	t0 := e.now
	e.now += dt
	e.batch = e.batch[:0]

	// Phase boundary: enter the next phase at its scheduled edge.
	for e.now >= e.phaseEnd && !e.Done() {
		e.phaseIdx++
		tick.PhaseChanged = true
		if e.Done() {
			break
		}
		e.phaseEnd += e.phases[e.phaseIdx].Duration
	}
	if e.Done() {
		tick.Now, tick.Done, tick.PhaseChanged = e.now, true, true
		tick.Phase = "done"
		tick.PhaseIndex = len(e.phases)
		tick.Active = len(e.sessions)
		return tick
	}
	ph := e.phase()
	tick.Phase = ph.Name
	tick.PhaseIndex = e.phaseIdx

	// Session arrivals (Poisson, rate modulated by diurnal × phase).
	for e.nextArrival < e.now {
		e.spawn(e.nextArrival, &tick)
		e.nextArrival += e.rng.ExpFloat64() / e.arrivalRate(e.nextArrival)
	}

	// Mobility: pick a random active session, move it to a different edge,
	// and emit a packet from the new ingress so the move is visible to the
	// caches immediately.
	for e.nextMove < e.now && len(e.sessions) > 0 {
		s := &e.sessions[e.rng.Intn(len(e.sessions))]
		if len(e.spec.Edges) > 1 {
			next := e.spec.Edges[e.rng.Intn(len(e.spec.Edges)-1)]
			if next == s.ingress {
				next = e.spec.Edges[len(e.spec.Edges)-1]
			}
			s.ingress = next
		}
		e.totalMoves++
		tick.Moves++
		e.emit(s, e.nextMove)
		e.nextMove += e.rng.ExpFloat64() / e.cfg.MobilityRate
	}
	if e.nextMove < e.now {
		// No sessions to move yet; re-arm rather than spin.
		e.nextMove = e.now + e.rng.ExpFloat64()/e.cfg.MobilityRate
	}

	// Departures: swap-delete expired sessions.
	for i := 0; i < len(e.sessions); {
		if e.sessions[i].departAt <= e.now {
			e.sessions[i] = e.sessions[len(e.sessions)-1]
			e.sessions = e.sessions[:len(e.sessions)-1]
			e.totalDepartures++
			tick.Departures++
			continue
		}
		i++
	}

	// Steady traffic: every active session accrues fractional packet
	// credit at the phase-scaled rate and emits whole packets.
	perTick := e.cfg.PacketRate * ph.trafficBoost() * dt
	for i := range e.sessions {
		s := &e.sessions[i]
		s.credit += perTick
		for s.credit >= 1 {
			s.credit--
			e.emit(s, t0)
		}
	}

	tick.Now = e.now
	tick.Batch = e.batch
	tick.Active = len(e.sessions)
	return tick
}
