package wire

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/packet"
	"difane/internal/proto"
	"difane/internal/telemetry"
)

// TestFrameIsOneCacheLine pins the data plane's frame at one 64-byte cache
// line and the header inside it at 40 bytes. Ring slots are nearly all of
// a wire deployment's heap, so these two sizes pin the benchmark's heap_mb:
// a field added to the frame, or a header reordered so that it pads, shows
// here before it shows there.
func TestFrameIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(dataFrame{}); got != 64 {
		t.Errorf("dataFrame is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(packet.Header{}); got != 40 {
		t.Errorf("packet.Header is %d bytes, want 40", got)
	}
}

// TestRedirectTunnelKeepsWhatLeavesThePlane sends a packet with every
// header field set through the whole detour — redirect at the ingress,
// authority lookup, tunnel to the egress — on switches whose IDs are not
// their slots, so an encapsulating switch named by the wrong one of the
// two shows. What leaves the plane must read as it went in: the delivery's
// header, detour bit and egress; the bytes the authority table counted;
// and, from the ingress recovered from its slot, the journey's authority
// span and the install, which must land at the ingress and turn the
// flow's next packet into a direct hit.
func TestRedirectTunnelKeepsWhatLeavesThePlane(t *testing.T) {
	const ingress, authority, egress, size = 20, 30, 50, 1234
	c := startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{10, ingress, authority, 40, egress},
		Authorities: []uint32{authority},
		Policy: []flowspace.Rule{
			{ID: 1, Priority: 10,
				Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 8080),
				Action: flowspace.Action{Kind: flowspace.ActForward, Arg: egress}},
			{ID: 2, Priority: 0, Match: flowspace.MatchAll(),
				Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 40}},
		},
		Strategy:  core.StrategyExact,
		Telemetry: TelemetryConfig{Tracing: true, TraceSample: 1},
	}))
	h := packet.Header{
		EthSrc: 0x0A0B0C0D0E0F, EthDst: 0x010203040506,
		IPSrc: packet.IP4(10, 1, 2, 3), IPDst: packet.IP4(192, 168, 7, 9),
		InPort: 7, EthType: packet.EthTypeIPv4, VLAN: 42,
		TPSrc: 40000, TPDst: 8080, IPProto: packet.ProtoUDP,
	}
	if !c.Inject(ingress, h, size) {
		t.Fatal("inject failed")
	}
	if d := awaitDelivery(t, c); d.Header != h || !d.Detour || d.Egress != egress {
		t.Fatalf("first packet delivered as %+v (header %#v), want header %#v, detour, egress %d", d, d.Header, h, egress)
	}
	var pkts, bytes uint64
	for _, e := range c.byID(authority).sw.Table(proto.TableAuthority).Entries() {
		if core.AuthorityEntryRuleID(e.Rule.ID) == 1 {
			pkts += e.Packets
			bytes += e.Bytes
		}
	}
	if pkts != 1 || bytes != size {
		t.Fatalf("authority counted %d packets of %d bytes for rule 1, want 1 packet of %d bytes", pkts, bytes, size)
	}

	js, _ := c.Journeys(telemetry.JourneyFilter{Flow: flowOf(&h).Hash})
	if len(js) != 1 || !js[0].Complete {
		t.Fatalf("want one complete journey, got %+v", js)
	}
	spans := make(map[telemetry.EventKind]telemetry.Event)
	for _, e := range js[0].Events {
		spans[e.Kind] = e
	}
	for _, want := range []telemetry.Event{
		{Kind: telemetry.EvRedirect, Node: ingress, Peer: authority},
		{Kind: telemetry.EvAuthority, Node: authority, Peer: ingress},
		{Kind: telemetry.EvInstallTriggered, Node: authority, Peer: ingress},
	} {
		if got, ok := spans[want.Kind]; !ok || got.Node != want.Node || got.Peer != want.Peer {
			t.Fatalf("span %v: got node %d peer %d (present %v), want node %d peer %d: %+v",
				want.Kind, got.Node, got.Peer, ok, want.Node, want.Peer, js[0].Events)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for c.CacheLen(ingress) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cache install never reached ingress %d", ingress)
		}
		time.Sleep(time.Millisecond)
	}
	c.Inject(ingress, h, size)
	if d := awaitDelivery(t, c); d.Header != h || d.Detour || d.Egress != egress {
		t.Fatalf("second packet delivered as %+v, want header %#v, direct, egress %d", d, h, egress)
	}
	if m := c.Measurements(); m.Redirects != 1 || m.Drops != (core.Drops{}) {
		t.Fatalf("redirects %d, drops %+v: want 1 and none", m.Redirects, m.Drops)
	}
}

// TestRunReturnsOnceBurstReleased: a data loop releases its burst's ring
// slots only after the burst's terminal accounting, and drained() counts
// held slots, so the wake-up for the last packet of a window has to come
// after the release — without it Run sleeps to its horizon. One ingress,
// windows smaller and larger than a burst, each Run within a second. (The
// allocation and timing tests that would also catch it skip themselves
// under -race; this one does not.)
func TestRunReturnsOnceBurstReleased(t *testing.T) {
	d := hitPathDeployment(t, core.PartitionConfig{})
	var k flowspace.Key
	k[flowspace.FIPSrc], k[flowspace.FTPDst] = 0x0A000001, 1007
	warmUntilQuiet(t, d, []core.PacketIn{{Ingress: 0, Key: k, Size: 100}})
	for _, window := range []int{1, fabricBurst / 2, fabricBurst, fabricBurst + 1, 3 * fabricBurst} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			batch := make([]core.PacketIn, window)
			for i := range batch {
				batch[i] = core.PacketIn{Ingress: 0, Key: k, Size: 100}
			}
			for round := 0; round < 5; round++ {
				delivered := d.Measurements().Delivered
				d.InjectBatch(batch)
				start := time.Now()
				d.Run(5)
				if took := time.Since(start); took > time.Second {
					t.Fatalf("round %d: Run took %v for %d hit packets", round, took, window)
				}
				if got := d.Measurements().Delivered - delivered; got != uint64(window) {
					t.Fatalf("round %d: delivered %d of %d once Run returned", round, got, window)
				}
			}
		})
	}
}
