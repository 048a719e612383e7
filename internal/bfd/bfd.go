// Package bfd implements an asynchronous-mode BFD-style session state
// machine in the spirit of RFC 5880: a three-way handshake through
// Down → Init → Up, a detect-multiplier timeout, and jittered transmit
// intervals. Demand mode and the Poll/Final sequence are not modelled:
// every session transmits periodically for as long as it lives.
//
// The package is transport-agnostic and clock-agnostic: a Session never
// sleeps, spawns, or sends. The driver calls Tick on its own cadence to
// learn what (if anything) to transmit and whether the detection timer
// expired, and feeds received packets to Handle. All timing flows through
// the time.Time values the caller passes in, so tests drive sessions with
// a fake clock deterministically. Wire mode carries Packet over its
// control channels as proto.BFDControl frames and runs one session per
// direction of every controller↔switch pair.
package bfd

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// State is a session's liveness state.
type State uint8

const (
	// StateAdminDown means the session was administratively taken down;
	// a peer receiving it must not treat the silence as a failure.
	StateAdminDown State = iota
	// StateDown: no (recent) contact with the peer.
	StateDown
	// StateInit: we hear the peer, the peer does not yet hear us.
	StateInit
	// StateUp: both directions confirmed — the three-way handshake closed.
	StateUp
)

func (s State) String() string {
	switch s {
	case StateAdminDown:
		return "admin-down"
	case StateDown:
		return "down"
	case StateInit:
		return "init"
	case StateUp:
		return "up"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Packet is one BFD control packet, the session's only wire artifact.
type Packet struct {
	State State
	// MyDiscr / YourDiscr are the session discriminators: MyDiscr names
	// the sender's session, YourDiscr echoes the peer's (0 until learned).
	MyDiscr   uint32
	YourDiscr uint32
	// DesiredMinTx / RequiredMinRx negotiate the transmit cadence: a
	// sender transmits no faster than the peer's RequiredMinRx.
	DesiredMinTx  time.Duration
	RequiredMinRx time.Duration
	// DetectMult is how many transmit intervals of silence the sender
	// wants its peer to tolerate before declaring the session down.
	DetectMult uint8
}

// Config parameterizes a session. Zero values take the package defaults.
type Config struct {
	// LocalDiscr is this session's discriminator (any nonzero value
	// unique among the driver's sessions).
	LocalDiscr uint32
	// DesiredMinTx is the transmit interval this end wants (default 2ms).
	DesiredMinTx time.Duration
	// RequiredMinRx is the slowest receive cadence this end will police
	// (default: DesiredMinTx).
	RequiredMinRx time.Duration
	// DetectMult is the detection multiplier: detection time is
	// DetectMult × the negotiated interval (default 3).
	DetectMult int
	// Rand is the jitter source in [0,1) (default math/rand; inject a
	// constant for deterministic tests).
	Rand func() float64
}

func (c *Config) applyDefaults() {
	if c.DesiredMinTx <= 0 {
		c.DesiredMinTx = 2 * time.Millisecond
	}
	if c.RequiredMinRx <= 0 {
		c.RequiredMinRx = c.DesiredMinTx
	}
	if c.DetectMult <= 0 {
		c.DetectMult = 3
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
}

// Info is a session snapshot for status surfaces.
type Info struct {
	State       State
	RemoteState State
	RemoteDiscr uint32
	// DetectTime is the current detection timeout (negotiated).
	DetectTime time.Duration
	// Transitions counts state changes since the session was created.
	Transitions uint64
	// LastChange is when the state last changed (zero if never).
	LastChange time.Time
}

// Session is one directed BFD session. All methods are safe for
// concurrent use; the state-change callback runs without the session
// lock held.
type Session struct {
	mu  sync.Mutex
	cfg Config

	state       State
	remoteState State
	remoteDiscr uint32
	// Negotiation state learned from the peer's packets.
	remoteMinRx     time.Duration
	remoteDesiredTx time.Duration
	remoteMult      uint8

	lastRx time.Time
	nextTx time.Time
	// mustTx forces one transmission on the next Tick, ahead of the
	// jittered interval — set when a received packet advances our state,
	// so the peer learns of the transition at once.
	mustTx bool

	lastChange  time.Time
	transitions uint64

	onState func(old, new State)
}

// New builds a session in StateDown. onState (optional) is invoked after
// every state change, outside the session lock.
func New(cfg Config, onState func(old, new State)) *Session {
	cfg.applyDefaults()
	return &Session{cfg: cfg, state: StateDown, remoteState: StateDown, onState: onState}
}

// setState transitions the machine; callers hold s.mu and fire the
// callback after unlocking.
func (s *Session) setState(st State, now time.Time) {
	if st == s.state {
		return
	}
	s.state = st
	s.lastChange = now
	s.transitions++
}

// Handle processes a received control packet. Nothing is sent back at
// once; a state-advancing packet makes the next Tick transmit.
func (s *Session) Handle(p Packet, now time.Time) {
	s.mu.Lock()
	old := s.state
	s.remoteState = p.State
	s.remoteDiscr = p.MyDiscr
	s.remoteMinRx = p.RequiredMinRx
	s.remoteDesiredTx = p.DesiredMinTx
	s.remoteMult = p.DetectMult
	s.lastRx = now
	// RFC 5880 §6.8.6, trimmed to the states this package models.
	if p.State == StateAdminDown {
		if s.state != StateDown {
			s.setState(StateDown, now)
		}
	} else {
		switch s.state {
		case StateDown:
			if p.State == StateDown {
				s.setState(StateInit, now)
			} else if p.State == StateInit {
				s.setState(StateUp, now)
			}
		case StateInit:
			if p.State == StateInit || p.State == StateUp {
				s.setState(StateUp, now)
			}
		case StateUp:
			if p.State == StateDown {
				s.setState(StateDown, now)
			}
		}
	}
	if s.state != old {
		// Accelerate the handshake: a state-advancing packet is answered
		// on the next Tick instead of waiting out the jittered interval.
		s.mustTx = true
	}
	cb, st := s.onState, s.state
	s.mu.Unlock()
	if cb != nil && st != old {
		cb(old, st)
	}
}

// Tick advances the session's timers: it checks the detection timeout and
// schedules transmission. It returns the packet to transmit now (nil if
// none is due) and whether this tick expired the detection timer
// (transitioning the session to Down).
func (s *Session) Tick(now time.Time) (send *Packet, expired bool) {
	s.mu.Lock()
	old := s.state
	if s.state == StateUp || s.state == StateInit {
		if !s.lastRx.IsZero() && now.Sub(s.lastRx) > s.detectTimeLocked() {
			s.setState(StateDown, now)
			expired = true
		}
	}
	if s.mustTx || s.nextTx.IsZero() || !now.Before(s.nextTx) {
		s.mustTx = false
		pk := s.packetLocked()
		send = &pk
		s.nextTx = now.Add(s.txIntervalLocked())
	}
	cb, st := s.onState, s.state
	s.mu.Unlock()
	if cb != nil && st != old {
		cb(old, st)
	}
	return send, expired
}

// Credit compensates the detection clock for a local scheduling stall:
// the driver discovered it resumed d late, so up to d of the observed
// receive silence is attributable to the local system — which was not
// listening — rather than to the peer. The receive clock advances by d,
// capped at now. Without this, a driver that shares one ticking goroutine
// across many sessions turns every stall longer than the detect time into
// a correlated false failure of all of them.
func (s *Session) Credit(d time.Duration, now time.Time) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	if !s.lastRx.IsZero() {
		if t := s.lastRx.Add(d); t.Before(now) {
			s.lastRx = t
		} else {
			s.lastRx = now
		}
	}
	s.mu.Unlock()
}

// Reset quietly returns the session to Down without invoking the
// state-change callback — an administrative teardown (e.g. around a
// simulated controller outage) whose silence must not read as a detected
// failure. The next handshake re-proves the path.
func (s *Session) Reset(now time.Time) {
	s.mu.Lock()
	if s.state != StateDown {
		s.state = StateDown
		s.lastChange = now
		s.transitions++
	}
	s.remoteState = StateDown
	s.mustTx = false
	s.lastRx = time.Time{}
	s.nextTx = now
	s.mu.Unlock()
}

// detectTimeLocked is the negotiated detection timeout: the peer's
// detect-multiplier (ours until learned) times the slower of our required
// receive interval and the peer's desired transmit interval.
func (s *Session) detectTimeLocked() time.Duration {
	mult := time.Duration(s.remoteMult)
	if mult == 0 {
		mult = time.Duration(s.cfg.DetectMult)
	}
	iv := s.cfg.RequiredMinRx
	if s.remoteDesiredTx > iv {
		iv = s.remoteDesiredTx
	}
	return mult * iv
}

// txIntervalLocked is the jittered transmit interval: the negotiated base
// (no faster than the peer's RequiredMinRx) scaled into [75%,100%) — or
// [75%,90%) when DetectMult is 1 — per RFC 5880 §6.8.7.
func (s *Session) txIntervalLocked() time.Duration {
	base := s.cfg.DesiredMinTx
	if s.remoteMinRx > base {
		base = s.remoteMinRx
	}
	span := 0.25
	if s.cfg.DetectMult == 1 {
		span = 0.15
	}
	f := 0.75 + span*s.cfg.Rand()
	return time.Duration(float64(base) * f)
}

func (s *Session) packetLocked() Packet {
	return Packet{
		State:         s.state,
		MyDiscr:       s.cfg.LocalDiscr,
		YourDiscr:     s.remoteDiscr,
		DesiredMinTx:  s.cfg.DesiredMinTx,
		RequiredMinRx: s.cfg.RequiredMinRx,
		DetectMult:    uint8(s.cfg.DetectMult),
	}
}

// State returns the current session state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Up reports whether the session is established.
func (s *Session) Up() bool { return s.State() == StateUp }

// DetectTime returns the current (negotiated) detection timeout.
func (s *Session) DetectTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detectTimeLocked()
}

// Info snapshots the session for status surfaces.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		State:       s.state,
		RemoteState: s.remoteState,
		RemoteDiscr: s.remoteDiscr,
		DetectTime:  s.detectTimeLocked(),
		Transitions: s.transitions,
		LastChange:  s.lastChange,
	}
}
