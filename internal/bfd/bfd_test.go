package bfd

import (
	"testing"
	"time"
)

// pump exchanges due packets between two sessions on a shared fake clock
// in steps of step for total, delivering each transmitted packet to the
// peer instantly. It returns the clock after the run.
func pump(t *testing.T, a, b *Session, start time.Time, step, total time.Duration) time.Time {
	t.Helper()
	now := start
	for el := time.Duration(0); el <= total; el += step {
		if p, _ := a.Tick(now); p != nil {
			b.Handle(*p, now)
		}
		if p, _ := b.Tick(now); p != nil {
			a.Handle(*p, now)
		}
		now = now.Add(step)
	}
	return now
}

func fixedRand() float64 { return 0.5 }

func TestHandshakeReachesUp(t *testing.T) {
	cfg := func(d uint32) Config {
		return Config{LocalDiscr: d, DesiredMinTx: 2 * time.Millisecond, Rand: fixedRand}
	}
	var aUps, bUps int
	a := New(cfg(1), func(_, st State) {
		if st == StateUp {
			aUps++
		}
	})
	b := New(cfg(2), func(_, st State) {
		if st == StateUp {
			bUps++
		}
	})
	start := time.Unix(0, 0)
	pump(t, a, b, start, 500*time.Microsecond, 10*time.Millisecond)
	if a.State() != StateUp || b.State() != StateUp {
		t.Fatalf("after pump: a=%v b=%v, want both up", a.State(), b.State())
	}
	if aUps != 1 || bUps != 1 {
		t.Fatalf("up callbacks: a=%d b=%d, want 1 each", aUps, bUps)
	}
	if a.Info().RemoteDiscr != 2 || b.Info().RemoteDiscr != 1 {
		t.Fatalf("discriminators not learned: a.remote=%d b.remote=%d",
			a.Info().RemoteDiscr, b.Info().RemoteDiscr)
	}
}

func TestDetectionOnSilentPeer(t *testing.T) {
	cfg := func(d uint32) Config {
		return Config{LocalDiscr: d, DesiredMinTx: 2 * time.Millisecond, DetectMult: 3, Rand: fixedRand}
	}
	var downAt []time.Duration
	start := time.Unix(0, 0)
	a := New(cfg(1), nil)
	b := New(cfg(2), nil)
	now := pump(t, a, b, start, 500*time.Microsecond, 10*time.Millisecond)
	if a.State() != StateUp {
		t.Fatalf("precondition: a not up (%v)", a.State())
	}
	// Silence b: only a ticks from here on.
	silentFrom := now
	for el := time.Duration(0); el <= 50*time.Millisecond; el += 500 * time.Microsecond {
		if _, expired := a.Tick(now); expired {
			downAt = append(downAt, now.Sub(silentFrom))
			break
		}
		now = now.Add(500 * time.Microsecond)
	}
	if len(downAt) == 0 {
		t.Fatalf("a never detected the silent peer")
	}
	dt := a.DetectTime()
	if dt != 6*time.Millisecond {
		t.Fatalf("detect time = %v, want 6ms (3 × 2ms)", dt)
	}
	// Detection must land within roughly one detect time of the silence
	// (the last rx was at most one tx interval before silentFrom).
	if downAt[0] > dt+3*time.Millisecond {
		t.Fatalf("detected after %v, want ≤ ~%v", downAt[0], dt+3*time.Millisecond)
	}
	if a.State() != StateDown {
		t.Fatalf("a state after detection = %v, want down", a.State())
	}
}

func TestJitterBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		mult int
		rnd  float64
		want float64 // fraction of base interval
	}{
		{"mult3-low", 3, 0.0, 0.75},
		{"mult3-high", 3, 0.999, 0.99975},
		{"mult1-high", 1, 0.999, 0.89985},
	} {
		s := New(Config{
			LocalDiscr:   1,
			DesiredMinTx: 10 * time.Millisecond,
			DetectMult:   tc.mult,
			Rand:         func() float64 { return tc.rnd },
		}, nil)
		got := s.txIntervalLocked()
		want := time.Duration(float64(10*time.Millisecond) * tc.want)
		if got != want {
			t.Errorf("%s: interval = %v, want %v", tc.name, got, want)
		}
	}
}

func TestNegotiationSlowsToPeer(t *testing.T) {
	// A fast sender must respect a slow receiver's RequiredMinRx.
	fast := New(Config{LocalDiscr: 1, DesiredMinTx: 1 * time.Millisecond, Rand: fixedRand}, nil)
	fast.Handle(Packet{
		State: StateDown, MyDiscr: 2,
		DesiredMinTx: 50 * time.Millisecond, RequiredMinRx: 50 * time.Millisecond,
		DetectMult: 3,
	}, time.Unix(0, 0))
	if iv := fast.txIntervalLocked(); iv < time.Duration(float64(50*time.Millisecond)*0.75) {
		t.Fatalf("tx interval %v ignores peer's RequiredMinRx of 50ms", iv)
	}
	// Detection must also stretch to the peer's slow DesiredMinTx.
	if dt := fast.DetectTime(); dt != 150*time.Millisecond {
		t.Fatalf("detect time = %v, want 150ms (3 × 50ms)", dt)
	}
}

func TestResetIsQuiet(t *testing.T) {
	var transitions []State
	cb := func(_, st State) { transitions = append(transitions, st) }
	a := New(Config{LocalDiscr: 1, DesiredMinTx: 2 * time.Millisecond, Rand: fixedRand}, cb)
	b := New(Config{LocalDiscr: 2, DesiredMinTx: 2 * time.Millisecond, Rand: fixedRand}, nil)
	start := time.Unix(0, 0)
	now := pump(t, a, b, start, 500*time.Microsecond, 10*time.Millisecond)
	if a.State() != StateUp {
		t.Fatalf("precondition: a not up")
	}
	n := len(transitions)
	a.Reset(now)
	if a.State() != StateDown {
		t.Fatalf("after Reset: %v, want down", a.State())
	}
	if len(transitions) != n {
		t.Fatalf("Reset fired the state callback: %v", transitions[n:])
	}
	// No detection verdict should follow from pre-reset silence...
	if _, expired := a.Tick(now.Add(time.Second)); expired {
		t.Fatalf("Tick reported detection expiry on a reset session")
	}
	// ...and the session must be able to come back up.
	b.Reset(now)
	pump(t, a, b, now, 500*time.Microsecond, 10*time.Millisecond)
	if a.State() != StateUp || b.State() != StateUp {
		t.Fatalf("sessions did not re-establish after Reset: a=%v b=%v", a.State(), b.State())
	}
}

func TestCreditDefersDetection(t *testing.T) {
	cfg := func(d uint32) Config {
		return Config{LocalDiscr: d, DesiredMinTx: 2 * time.Millisecond, DetectMult: 3, Rand: fixedRand}
	}
	a := New(cfg(1), nil)
	b := New(cfg(2), nil)
	now := pump(t, a, b, time.Unix(0, 0), 500*time.Microsecond, 10*time.Millisecond)
	if a.State() != StateUp {
		t.Fatalf("precondition: a not up")
	}
	// The driver stalls for 20ms — well past the 6ms detect time — then
	// credits the stall back before ticking. No expiry may fire.
	stall := 20 * time.Millisecond
	now = now.Add(stall)
	a.Credit(stall, now)
	if _, expired := a.Tick(now); expired {
		t.Fatalf("detection fired across a credited stall")
	}
	if a.State() != StateUp {
		t.Fatalf("credited stall took the session down: %v", a.State())
	}
	// With the peer genuinely silent and no further credits, detection
	// still converges.
	detected := false
	for el := time.Duration(0); el <= 20*time.Millisecond; el += 500 * time.Microsecond {
		now = now.Add(500 * time.Microsecond)
		if _, expired := a.Tick(now); expired {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatalf("credit permanently suppressed detection")
	}
	// Credit never moves the clock past now: an absurd credit equals a
	// fresh rx, no more.
	c := New(cfg(3), nil)
	d := New(cfg(4), nil)
	now2 := pump(t, c, d, time.Unix(0, 0), 500*time.Microsecond, 10*time.Millisecond)
	c.Credit(time.Hour, now2)
	now2 = now2.Add(7 * time.Millisecond) // one detect time past the cap
	if _, expired := c.Tick(now2); !expired {
		t.Fatalf("over-credit extended detection beyond now + detect time")
	}
}

func TestAdminDownForcesPeerDown(t *testing.T) {
	a := New(Config{LocalDiscr: 1, Rand: fixedRand}, nil)
	b := New(Config{LocalDiscr: 2, Rand: fixedRand}, nil)
	now := pump(t, a, b, time.Unix(0, 0), 500*time.Microsecond, 10*time.Millisecond)
	if a.State() != StateUp {
		t.Fatalf("precondition: a not up")
	}
	a.Handle(Packet{State: StateAdminDown, MyDiscr: 2}, now)
	if a.State() != StateDown {
		t.Fatalf("rx admin-down left a in %v, want down", a.State())
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateAdminDown: "admin-down",
		StateDown:      "down",
		StateInit:      "init",
		StateUp:        "up",
		State(9):       "state(9)",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
}
