package wire

import (
	"testing"
	"time"

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

// startCluster boots cfg and closes it with the test.
func startCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// slack gives cfg the failure-detector timers of a test that is not about
// detection speed: on the defaults (BFD: 6 ms to a verdict) a test binary
// sharing two cores with another package's sees every switch die at once
// and its packets dropped as holes.
func slack(cfg ClusterConfig) ClusterConfig {
	cfg.Heartbeat, cfg.BFD = SlackHeartbeat, SlackBFD
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

// TestInjectBatchPoolReuse runs two InjectBatch calls back to back through
// the same deployment, so the second batch is staged in the pooled frame
// slab the first one used. Every delivery from the second batch must carry
// exactly its own header and size — any stale field surviving slab reuse
// (old headers, encap state, the detour bit) shows up as a corrupted or
// duplicated delivery here.
func TestInjectBatchPoolReuse(t *testing.T) {
	c := newCluster(t, core.StrategyCover)
	d := Deploy(c)

	const per = 32
	mkBatch := func(base uint32, size int) []core.PacketIn {
		batch := make([]core.PacketIn, per)
		for i := range batch {
			h := httpHeader(base + uint32(i))
			batch[i] = core.PacketIn{Ingress: uint32(i % 2), Key: h.Key(), Size: size}
		}
		return batch
	}
	first := mkBatch(1000, 100)
	d.InjectBatch(first)
	seen := make(map[uint32]int, per)
	for i := range first {
		seen[1000+uint32(i)] = 100
	}
	for n := 0; n < per; n++ {
		del := awaitDelivery(t, c)
		if _, ok := seen[del.Header.IPSrc]; !ok {
			t.Fatalf("first batch: unexpected src %d: %+v", del.Header.IPSrc, del)
		}
		delete(seen, del.Header.IPSrc)
	}

	second := mkBatch(2000, 700)
	d.InjectBatch(second)
	seen = make(map[uint32]int, per)
	for i := range second {
		seen[2000+uint32(i)] = 700
	}
	for n := 0; n < per; n++ {
		del := awaitDelivery(t, c)
		if _, ok := seen[del.Header.IPSrc]; !ok {
			t.Fatalf("second batch: stale or duplicate src %d leaked from pooled slab: %+v",
				del.Header.IPSrc, del)
		}
		delete(seen, del.Header.IPSrc)
		if del.Header.TPDst != 80 {
			t.Fatalf("second batch: header corrupted: %+v", del.Header)
		}
	}
	if len(seen) != 0 {
		t.Fatalf("second batch: %d deliveries missing", len(seen))
	}
	d.Run(5)
	m := d.Measurements()
	if m.Delivered != 2*per {
		t.Fatalf("delivered = %d, want %d", m.Delivered, 2*per)
	}
}
