package packet

import (
	"math/rand"
	"testing"

	"difane/internal/flowspace"
)

func sampleHeader() Header {
	return Header{
		InPort:  3,
		EthSrc:  0x001122334455,
		EthDst:  0xAABBCCDDEEFF,
		EthType: EthTypeIPv4,
		VLAN:    100,
		IPProto: ProtoTCP,
		IPSrc:   IP4(10, 0, 0, 1),
		IPDst:   IP4(192, 168, 1, 2),
		TPSrc:   43210,
		TPDst:   80,
	}
}

func TestKeyProjectionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		h := Header{
			InPort:  uint16(rng.Uint32()),
			EthSrc:  rng.Uint64() & 0xFFFFFFFFFFFF,
			EthDst:  rng.Uint64() & 0xFFFFFFFFFFFF,
			EthType: uint16(rng.Uint32()),
			VLAN:    uint16(rng.Uint32()) & 0xFFF,
			IPProto: uint8(rng.Uint32()),
			IPSrc:   rng.Uint32(),
			IPDst:   rng.Uint32(),
			TPSrc:   uint16(rng.Uint32()),
			TPDst:   uint16(rng.Uint32()),
		}
		if got := HeaderFromKey(h.Key()); got != h {
			t.Fatalf("key projection not invertible:\n got %+v\nwant %+v", got, h)
		}
	}
}

func TestKeyMatchesRules(t *testing.T) {
	h := sampleHeader()
	m := flowspace.MatchAll().
		WithPrefix(flowspace.FIPSrc, uint64(IP4(10, 0, 0, 0)), 8).
		WithExact(flowspace.FTPDst, 80)
	if !m.Matches(h.Key()) {
		t.Fatal("rule must match the sample packet")
	}
	m2 := m.WithExact(flowspace.FIPProto, ProtoUDP)
	if m2.Matches(h.Key()) {
		t.Fatal("UDP rule must not match a TCP packet")
	}
}

func TestStringHelpers(t *testing.T) {
	if IPString(IP4(10, 1, 2, 3)) != "10.1.2.3" {
		t.Fatalf("IPString = %q", IPString(IP4(10, 1, 2, 3)))
	}
	if sampleHeader().String() == "" {
		t.Fatal("header must render")
	}
	if EncapRedirect.String() != "redirect" || EncapTunnel.String() != "tunnel" {
		t.Fatal("encap reasons must render")
	}
	if EncapReason(9).String() == "" {
		t.Fatal("unknown encap reason must render")
	}
}
