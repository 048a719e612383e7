package wire

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/testutil"
)

func reconnectCfg() ClusterConfig {
	return ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2, 3},
		Policy:      failoverPolicy(),
		Strategy:    core.StrategyExact,
	}
}

func awaitReconnects(t *testing.T, c *Cluster, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Measurements().ControlReconnects < want {
		if time.Now().After(deadline) {
			t.Fatalf("reconnects = %d, want ≥ %d",
				c.Measurements().ControlReconnects, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPartitionHealReconnects exercises the full partition → detect dead →
// heal → reconnect → revive cycle.
func TestPartitionHealReconnects(t *testing.T) {
	t.Run("pipe", func(t *testing.T) {
		c, err := NewCluster(reconnectCfg())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		awaitBFDUp(t, c)

		if !c.PartitionControl(1) {
			t.Fatal("PartitionControl failed")
		}
		// BFD packets are suppressed: the session expires and marks 1
		// dead.
		deadline := time.Now().Add(5 * time.Second)
		for c.NodeAlive(1) {
			if time.Now().After(deadline) {
				t.Fatal("partitioned switch never detected dead")
			}
			time.Sleep(time.Millisecond)
		}

		if !c.HealControl(1) {
			t.Fatal("HealControl failed")
		}
		awaitReconnects(t, c, 1)
		// The BFD session comes back Up; after the holddown the verdict
		// flips back.
		deadline = time.Now().Add(5 * time.Second)
		for !c.NodeAlive(1) {
			if time.Now().After(deadline) {
				t.Fatal("healed switch never revived")
			}
			time.Sleep(time.Millisecond)
		}
		// The healed switch serves traffic again.
		if !c.Inject(1, httpHeader(9), 100) {
			t.Fatal("inject after heal failed")
		}
		if d := awaitDelivery(t, c); d.Egress != 4 {
			t.Fatalf("delivery after heal: %+v", d)
		}
	})
}

// flakyConn wraps a net.Conn and fails permanently after a set number of
// writes, simulating a control link that keeps dying.
type flakyConn struct {
	net.Conn
	writesLeft *atomic.Int64
}

func (f *flakyConn) Write(b []byte) (int, error) {
	if f.writesLeft.Add(-1) < 0 {
		f.Conn.Close()
		return 0, fmt.Errorf("flaky conn: link died")
	}
	return f.Conn.Write(b)
}

// flakyPipes hands out pipes whose switch side dies after writesPerConn
// writes; after maxDrops pipes it hands out healthy ones, so the cluster
// eventually stabilizes.
type flakyPipes struct {
	writesPerConn int64
	maxDrops      int64
	handed        atomic.Int64
}

func (f *flakyPipes) pipe() (net.Conn, net.Conn) {
	a, b := net.Pipe()
	if f.handed.Add(1) > f.maxDrops {
		return a, b
	}
	left := &atomic.Int64{}
	left.Store(f.writesPerConn)
	return &flakyConn{Conn: a, writesLeft: left}, b
}

// TestReconnectWithFlakyConn drives the connection manager through
// repeated link deaths: each flaky pipe fails mid-session and is replaced,
// and once the pipes stop sabotaging the cluster works normally.
func TestReconnectWithFlakyConn(t *testing.T) {
	fp := &flakyPipes{writesPerConn: 3, maxDrops: int64(5 + 3)} // 5 initial pipes + 3 flaky replacements
	cfg := reconnectCfg()
	cfg.pipe = fp.pipe
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// The switch side's BFD packets burn the write budget; every flaky pipe
	// dies and is replaced.
	awaitReconnects(t, c, 3)

	// With healthy pipes handed out, the full miss path (redirect, cache
	// install, delivery) works.
	deadline := time.Now().Add(5 * time.Second)
	for c.CacheLen(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cache install never arrived after flaky phase")
		}
		if c.Inject(0, httpHeader(uint32(100+c.CacheLen(0))), 100) {
			select {
			case <-c.Deliveries:
			case <-time.After(100 * time.Millisecond):
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fp.handed.Load() < 8 {
		t.Errorf("pipes made = %d, want ≥ 8", fp.handed.Load())
	}
}

// TestBackoffDeterministic pins the backoff schedule with an injected
// randomness source.
func TestBackoffDeterministic(t *testing.T) {
	zero := func() float64 { return 0 }
	want := []time.Duration{
		1 * time.Millisecond, // attempt 1
		2 * time.Millisecond,
		4 * time.Millisecond,
		5 * time.Millisecond, // capped
		5 * time.Millisecond,
	}
	for i, w := range want {
		if got := backoff(i+1, zero); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// A full jitter draw (rnd = 1) takes retryJitter of every delay away.
	one := func() float64 { return 1 }
	for i, w := range want {
		if got, jw := backoff(i+1, one), w-time.Duration(float64(w)*retryJitter); got != jw {
			t.Errorf("jittered backoff(%d) = %v, want %v", i+1, got, jw)
		}
	}
	// Out-of-range attempts clamp instead of misbehaving.
	if got := backoff(0, zero); got != time.Millisecond {
		t.Errorf("backoff(0) = %v", got)
	}
	if got := backoff(64, zero); got != 5*time.Millisecond {
		t.Errorf("backoff(64) = %v", got)
	}
}

func TestValidateDefaults(t *testing.T) {
	cfg := ClusterConfig{
		Switches:    []uint32{0, 1},
		Authorities: []uint32{1},
		Policy:      failoverPolicy(),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.QueueDepth != 1024 {
		t.Errorf("QueueDepth = %d", cfg.QueueDepth)
	}
	if cfg.BFD.Interval != 2*time.Millisecond || cfg.BFD.DetectMult != 3 {
		t.Errorf("BFD defaults: %+v", cfg.BFD)
	}
	// The redirect-ack timeout is twice the BFD detect time, floored at
	// 300 ms: the defaults, SlackBFD, difanectl's and the benchmark's timers.
	for _, tc := range []struct {
		bfd  BFDConfig
		want time.Duration
	}{
		{cfg.BFD, 300 * time.Millisecond},
		{SlackBFD, time.Second},
		{BFDConfig{Interval: 200 * time.Millisecond, DetectMult: 10}, 4 * time.Second},
		{BFDConfig{Interval: 200 * time.Millisecond, DetectMult: 5}, 2 * time.Second},
	} {
		if got := tc.bfd.redirectTimeout(); got != tc.want {
			t.Errorf("redirectTimeout(%+v) = %v, want %v", tc.bfd, got, tc.want)
		}
	}
	if got := cfg.ringDepth(); got != 1024 {
		t.Errorf("ringDepth = %d", got)
	}

	shallow := ClusterConfig{Switches: []uint32{0, 1}, Authorities: []uint32{1},
		Policy: failoverPolicy(), QueueDepth: fabricBurst / 2}
	if err := shallow.Validate(); err == nil {
		t.Error("a queue shallower than one burst must fail validation")
	}

	dup := ClusterConfig{Switches: []uint32{0, 0}, Authorities: []uint32{0},
		Policy: failoverPolicy()}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate switch must fail validation")
	}

	// A frame names its encapsulating switch by a 16-bit node slot.
	for _, n := range []int{1 << 16, 1<<16 - 1} {
		many := ClusterConfig{Switches: make([]uint32, n), Authorities: []uint32{0},
			Policy: failoverPolicy()}
		for i := range many.Switches {
			many.Switches[i] = uint32(i)
		}
		if err := many.Validate(); (err == nil) != (n <= 1<<16-1) {
			t.Errorf("%d switches: Validate() = %v", n, err)
		}
	}
}

func TestNewClusterContextCancelShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c, err := NewClusterContext(ctx, reconnectCfg())
	if err != nil {
		t.Fatal(err)
	}
	c.Inject(0, httpHeader(1), 100)
	awaitDelivery(t, c)
	cancel()
	// Close after cancel must not hang; the goroutines are already gone.
	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after context cancel")
	}
}

// TestNoGoroutineLeaks runs a full lifecycle — traffic, faults, reconnect,
// close — and checks the goroutine count returns to its baseline (a
// goleak-style check).
func TestNoGoroutineLeaks(t *testing.T) {
	t.Run("pipe", func(t *testing.T) {
		check := testutil.CheckGoroutineLeaks(t, 2)
		c, err := NewCluster(reconnectCfg())
		if err != nil {
			t.Fatal(err)
		}
		c.Inject(0, httpHeader(1), 100)
		awaitDelivery(t, c)
		c.PartitionControl(1)
		c.HealControl(1)
		c.KillSwitch(4)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		check()
	})
}
