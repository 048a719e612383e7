package wire

import (
	"testing"
	"time"

	"difane/internal/bfd"
	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/packet"
)

func testPolicy() []flowspace.Rule {
	return []flowspace.Rule{
		{ID: 1, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}},
		{ID: 2, Priority: 5,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 22),
			Action: flowspace.Action{Kind: flowspace.ActDrop}},
		{ID: 3, Priority: 0, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 3}},
	}
}

// startCluster boots cfg, closes it with the test, and returns once every
// switch's BFD session is Up (awaitBFDUp).
func startCluster(t testing.TB, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	awaitBFDUp(t, c)
	return c
}

// awaitBFDUp waits until the controller's BFD session with every switch is
// Up. A session that never leaves Down never expires, so a switch the
// controller has not yet heard is judged by no detector: a test that kills
// or cuts off a switch waits for this first.
func awaitBFDUp(t testing.TB, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		up := 0
		for _, info := range c.BFDSessions() {
			if info.State == bfd.StateUp {
				up++
			}
		}
		if up == len(c.nodes) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("BFD sessions never established (%d/%d up)", up, len(c.nodes))
		}
		time.Sleep(time.Millisecond)
	}
}

// slack gives cfg the failure-detector timers of a test that is not about
// detection speed: on the defaults (BFD: 6 ms to a verdict) a test binary
// sharing two cores with another package's sees every switch die at once
// and its packets dropped as holes.
func slack(cfg ClusterConfig) ClusterConfig {
	cfg.BFD = SlackBFD
	return cfg
}

func newCluster(t *testing.T, strategy core.CacheStrategy) *Cluster {
	t.Helper()
	return startCluster(t, ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2},
		Policy:      testPolicy(),
		Strategy:    strategy,
	})
}

func httpHeader(src uint32) packet.Header {
	return packet.Header{
		EthType: packet.EthTypeIPv4, IPProto: packet.ProtoTCP,
		IPSrc: src, IPDst: packet.IP4(10, 0, 0, 1), TPDst: 80,
	}
}

func awaitDelivery(t *testing.T, c *Cluster) Delivery {
	t.Helper()
	select {
	case d := <-c.Deliveries:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for delivery")
		return Delivery{}
	}
}

func TestFirstPacketDetourDelivers(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	if !c.Inject(0, httpHeader(1), 100) {
		t.Fatal("inject failed")
	}
	d := awaitDelivery(t, c)
	if d.Egress != 4 {
		t.Fatalf("egress = %d, want 4", d.Egress)
	}
	if !d.Detour {
		t.Fatal("first packet must travel via the authority")
	}
	if d.Header.TPDst != 80 {
		t.Fatalf("header corrupted: %+v", d.Header)
	}
}

func TestCacheInstallMakesSecondPacketDirect(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	c.Inject(0, httpHeader(1), 100)
	awaitDelivery(t, c)
	// Wait for the cache install to land at ingress 0.
	deadline := time.Now().Add(5 * time.Second)
	for c.CacheLen(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cache install never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	c.Inject(0, httpHeader(2), 100)
	d := awaitDelivery(t, c)
	if d.Detour {
		t.Fatal("cached packet must go direct")
	}
	if d.Egress != 4 {
		t.Fatalf("egress = %d", d.Egress)
	}
}

func TestPolicyDropNeverDelivers(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	h := httpHeader(1)
	h.TPDst = 22
	c.Inject(0, h, 100)
	select {
	case d := <-c.Deliveries:
		t.Fatalf("dropped packet was delivered: %+v", d)
	case <-time.After(200 * time.Millisecond):
	}
}

func TestBarrierRoundTrip(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	for xid := uint32(1); xid <= 5; xid++ {
		if err := c.Barrier(0, xid); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Barrier(99, 1); err == nil {
		t.Fatal("barrier to unknown switch must fail")
	}
}

func TestStatsOverControlPlane(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	c.Inject(0, httpHeader(1), 100)
	awaitDelivery(t, c)
	// The authority switch (2) served the miss from its authority table.
	rep, err := c.Stats(2, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatal("authority must know rule 1")
	}
	if rep, err := c.Stats(2, 424242, 8); err != nil || rep.OK {
		t.Fatalf("unknown rule must reply !OK (err=%v)", err)
	}
}

func TestManyFlowsAllDeliveredConcurrently(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	const flows = 200
	go func() {
		for i := 0; i < flows; i++ {
			for !c.Inject(uint32(i%2), httpHeader(uint32(i+10)), 100) {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for i := 0; i < flows; i++ {
		d := awaitDelivery(t, c)
		if d.Egress != 4 {
			t.Fatalf("egress = %d", d.Egress)
		}
	}
}

func TestExactStrategyWire(t *testing.T) {
	c := newCluster(t, core.StrategyExact)
	c.Inject(0, httpHeader(1), 100)
	awaitDelivery(t, c)
	deadline := time.Now().Add(5 * time.Second)
	for c.CacheLen(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cache install never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// A different flow must detour again (exact rules don't generalize).
	c.Inject(0, httpHeader(99), 100)
	d := awaitDelivery(t, c)
	if !d.Detour {
		t.Fatal("exact caching must not cover other flows")
	}
}

func TestInjectUnknownSwitch(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	if c.Inject(99, httpHeader(1), 100) {
		t.Fatal("inject at unknown switch must fail")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Fatal("empty config must fail")
	}
	_, err := NewCluster(ClusterConfig{
		Switches:    []uint32{0},
		Authorities: []uint32{5}, // not a cluster switch
		Policy:      testPolicy(),
	})
	if err == nil {
		t.Fatal("authority outside cluster must fail")
	}
}

func TestCloseIsIdempotentAndStops(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	c.Close()
	c.Close()
	if c.Inject(0, httpHeader(1), 100) {
		// Inject into a closed cluster may enqueue but nothing drains;
		// the important property is no panic and no hang.
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInjectBatchSlotReuse runs InjectBatch calls back to back through
// rings of 64 slots, so later batches are written in place into ring slots
// earlier ones used, at the ingress and at the egress. Every delivery must
// carry exactly its own batch's header, and once the first batch has
// cached the flows none may have detoured — a field surviving slot reuse
// (an old header, encap state, the detour bit) shows up as a stale,
// duplicated, corrupted or detoured delivery here.
func TestInjectBatchSlotReuse(t *testing.T) {
	c := startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2},
		Policy:      testPolicy(),
		Strategy:    core.StrategyCover,
		QueueDepth:  64,
	}))
	d := Deploy(c)
	const per, batches = 48, 6 // 24 per ingress: each ring wraps twice
	for b := 0; b < batches; b++ {
		base := uint32(1000 * (b + 1))
		batch := make([]core.PacketIn, per)
		for i := range batch {
			h := httpHeader(base + uint32(i))
			batch[i] = core.PacketIn{Ingress: uint32(i % 2), Key: h.Key(), Size: 100 + b}
		}
		d.InjectBatch(batch)
		d.Run(5)
		seen := make(map[uint32]bool, per)
		for n := 0; n < per; n++ {
			del := awaitDelivery(t, c)
			src := del.Header.IPSrc
			if src < base || src >= base+per || seen[src] || del.Header.TPDst != 80 {
				t.Fatalf("batch %d: stale, duplicate or corrupted delivery: %+v", b, del)
			}
			if b > 0 && del.Detour {
				t.Fatalf("batch %d: cached flow delivered with the detour bit: %+v", b, del)
			}
			seen[src] = true
		}
	}
	if m := d.Measurements(); m.Delivered != per*batches {
		t.Fatalf("delivered = %d, want %d", m.Delivered, per*batches)
	}
}
