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

func reconnectCfg(useTCP bool) ClusterConfig {
	return ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2, 3},
		Policy:      failoverPolicy(),
		Strategy:    core.StrategyExact,
		UseTCP:      useTCP,
		Heartbeat:   HeartbeatConfig{Interval: 5 * time.Millisecond, MissThreshold: 3},
		Retry:       RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
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
// heal → reconnect → revive cycle, over both transports.
func TestPartitionHealReconnects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		useTCP bool
	}{{"pipe", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(reconnectCfg(tc.useTCP))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })

			if !c.PartitionControl(1) {
				t.Fatal("PartitionControl failed")
			}
			// Heartbeats are suppressed: the detector marks 1 dead.
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
			// Heartbeats resume; after the holddown the verdict flips back.
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

// flakyTransport hands out pipe connections whose switch side dies after
// writesPerConn writes; after maxDrops connections it hands out healthy
// ones, so the cluster eventually stabilizes.
type flakyTransport struct {
	writesPerConn int64
	maxDrops      int64
	handed        atomic.Int64
	dialAttempts  atomic.Int64
}

func (f *flakyTransport) connect(ctx context.Context, id uint32) (net.Conn, net.Conn, error) {
	f.dialAttempts.Add(1)
	a, b := net.Pipe()
	if f.handed.Add(1) > f.maxDrops {
		return a, b, nil
	}
	left := &atomic.Int64{}
	left.Store(f.writesPerConn)
	return &flakyConn{Conn: a, writesLeft: left}, b, nil
}

func (f *flakyTransport) close() {}

// TestReconnectWithFlakyConn drives the connection manager through
// repeated link deaths: each flaky conn fails mid-session, the manager
// backs off and redials, and once the transport stops sabotaging the
// cluster works normally.
func TestReconnectWithFlakyConn(t *testing.T) {
	ft := &flakyTransport{writesPerConn: 3, maxDrops: int64(5 + 3)} // 5 initial conns + 3 flaky redials
	cfg := reconnectCfg(false)
	cfg.trans = ft
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Heartbeat echoes burn the write budget; every flaky conn dies and is
	// re-established.
	awaitReconnects(t, c, 3)

	// With healthy connections handed out, the full miss path (redirect,
	// cache install over the control plane, delivery) works.
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
	if ft.dialAttempts.Load() < 8 {
		t.Errorf("dial attempts = %d, want ≥ 8", ft.dialAttempts.Load())
	}
}

// TestBackoffDeterministic pins the backoff schedule with an injected
// randomness source.
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 80 * time.Millisecond}
	zero := func() float64 { return 0 }
	want := []time.Duration{
		10 * time.Millisecond, // attempt 1
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond, // capped
		80 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.backoff(i+1, zero); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// A full jitter draw (rnd = 1) takes retryJitter of every delay away.
	one := func() float64 { return 1 }
	for i, w := range want {
		if got, jw := p.backoff(i+1, one), w-time.Duration(float64(w)*retryJitter); got != jw {
			t.Errorf("jittered backoff(%d) = %v, want %v", i+1, got, jw)
		}
	}
	// Out-of-range attempts clamp instead of misbehaving.
	if got := p.backoff(0, zero); got != 10*time.Millisecond {
		t.Errorf("backoff(0) = %v", got)
	}
	if got := p.backoff(64, zero); got != 80*time.Millisecond {
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
	if cfg.Heartbeat.Interval != 50*time.Millisecond || cfg.Heartbeat.MissThreshold != 3 {
		t.Errorf("heartbeat defaults: %+v", cfg.Heartbeat)
	}
	if got := cfg.Heartbeat.redirectTimeout(); got != 300*time.Millisecond {
		t.Errorf("redirectTimeout = %v", got)
	}
	if got := cfg.ringDepth(); got != 1024 {
		t.Errorf("ringDepth = %d", got)
	}

	shallow := ClusterConfig{Switches: []uint32{0, 1}, Authorities: []uint32{1},
		Policy: failoverPolicy(), QueueDepth: fabricBurst / 2}
	if err := shallow.Validate(); err == nil {
		t.Error("a queue shallower than one burst must fail validation")
	}
	if cfg.Retry.MaxAttempts != 4 || cfg.Retry.BaseDelay != 10*time.Millisecond {
		t.Errorf("retry defaults: %+v", cfg.Retry)
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
	c, err := NewClusterContext(ctx, reconnectCfg(false))
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
// close — over both transports and checks the goroutine count returns to
// its baseline (a goleak-style check that also guards dialControlTCP's
// successor against leaking on partial failure).
func TestNoGoroutineLeaks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		useTCP bool
	}{{"pipe", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			check := testutil.CheckGoroutineLeaks(t, 2)
			c, err := NewCluster(reconnectCfg(tc.useTCP))
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
}

// TestTCPTransportConnectFailureCleansUp covers the dial-path error
// branches: a cancelled context and a closed transport both fail fast
// without leaving pending state behind.
func TestTCPTransportConnectFailureCleansUp(t *testing.T) {
	tr, err := newTCPTransport()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tr.connect(ctx, 7); err == nil {
		t.Fatal("connect with cancelled context must fail")
	}
	tr.mu.Lock()
	pending := len(tr.pending)
	tr.mu.Unlock()
	if pending != 0 {
		t.Errorf("pending waiters leaked: %d", pending)
	}
	tr.close()
	if _, _, err := tr.connect(context.Background(), 7); err == nil {
		t.Fatal("connect after close must fail")
	}
	tr.close() // idempotent
}
