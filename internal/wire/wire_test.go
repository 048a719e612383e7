package wire

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"difane/internal/bfd"
	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/packet"
	"difane/internal/proto"
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
	for i := 0; i < 5; i++ {
		if err := c.barrier(c.ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.barrier(c.ctx, 99); err == nil {
		t.Fatal("barrier to unknown switch must fail")
	}
}

// frameTap hands out control pipes one end of which decodes every frame
// written into it, counting them by type: the switch end (what a switch
// sends upstream), or with downstream the controller end (what the
// controller sends a switch).
type frameTap struct {
	mu         sync.Mutex
	seen       map[proto.MsgType]int
	bad        error
	downstream bool
}

func (u *frameTap) pipe() (net.Conn, net.Conn) {
	sw, ctrl := net.Pipe()
	if u.downstream {
		return sw, &tapConn{Conn: ctrl, tap: u}
	}
	return &tapConn{Conn: sw, tap: u}, ctrl
}

func (u *frameTap) counts() (map[proto.MsgType]int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(map[proto.MsgType]int, len(u.seen))
	for t, n := range u.seen {
		out[t] = n
	}
	return out, u.bad
}

// tapConn is a tapped end of a control pipe. proto.WriteMessage writes
// one whole frame per Write, so each Write decodes to exactly one message.
type tapConn struct {
	net.Conn
	tap *frameTap
}

func (t *tapConn) Write(b []byte) (int, error) {
	m, n, err := proto.DecodeFrame(b)
	t.tap.mu.Lock()
	if err == nil && n != len(b) {
		err = fmt.Errorf("%d bytes past a %v frame", len(b)-n, m.Type())
	}
	if err != nil {
		t.tap.bad = err
	} else {
		t.tap.seen[m.Type()]++
	}
	t.tap.mu.Unlock()
	return t.Conn.Write(b)
}

// Upstream, a switch sends barrier replies and BFD packets and nothing
// else: what the controller knows of a switch's tables and fence it reads
// in process. The run sends traffic, a fenced FlowMod, one that raises
// the fence, a stale one the switch rejects, and barriers to every switch.
func TestOnlyBarrierRepliesAndBFDGoUpstream(t *testing.T) {
	tap := &frameTap{seen: map[proto.MsgType]int{}}
	cfg := slack(failoverConfig())
	cfg.pipe = tap.pipe
	c := startCluster(t, cfg)
	for i := uint32(0); i < 8; i++ {
		if !c.Inject(i%2, httpHeader(10+i), 100) {
			t.Fatal("inject failed")
		}
		awaitDelivery(t, c)
	}
	mod := func(id, epoch uint64) proto.FlowMod {
		return proto.FlowMod{Table: proto.TableAuthority, Op: proto.OpAdd, Epoch: epoch,
			Rule: flowspace.Rule{ID: id, Priority: 99, Match: flowspace.MatchAll().WithExact(flowspace.FTPDst, uint64(id)),
				Action: flowspace.Action{Kind: flowspace.ActDrop}}}
	}
	e := c.Epoch()
	for _, m := range []proto.FlowMod{mod(901, e), mod(902, e+2), mod(903, e+1)} {
		if err := c.InstallRule(2, m); err != nil {
			t.Fatal(err)
		}
	}
	waitMeasure(t, c, "stale-install rejection", func(m *core.Measurements) bool {
		return m.StaleInstallsRejected == 1
	})
	for round := 0; round < 2; round++ {
		for _, sw := range c.SwitchIDs() {
			if err := c.barrier(c.ctx, sw); err != nil {
				t.Fatal(err)
			}
		}
	}
	seen, err := tap.counts()
	if err != nil {
		t.Fatalf("a switch wrote an undecodable frame: %v", err)
	}
	if seen[proto.MsgBarrierReply] < 2*len(c.SwitchIDs()) || seen[proto.MsgBFDControl] == 0 {
		t.Fatalf("upstream frames %v: want every barrier reply and BFD", seen)
	}
	for typ, n := range seen {
		if typ != proto.MsgBarrierReply && typ != proto.MsgBFDControl {
			t.Errorf("a switch sent %d %v frame(s) upstream", n, typ)
		}
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
