// Package packet models the packets that flow through the simulated and
// wire-mode DIFANE networks: a typed header tuple, its projection onto the
// flowspace match key, and the reasons a packet is encapsulated — a
// cache miss redirected to an authority switch, or a packet tunneled to its
// egress switch. Packets never leave the process, so there is no byte
// format: wire mode carries the header and the reason in its ring frame.
package packet

import (
	"fmt"

	"difane/internal/flowspace"
)

// Header is the parsed header tuple of a packet — the fields DIFANE rules
// match on. Fields run widest first, so the struct packs into 40 bytes
// (declaration order would pad it to 48); wire mode's 64-byte frame counts
// on that.
type Header struct {
	EthSrc  uint64 // 48 bits significant
	EthDst  uint64 // 48 bits significant
	IPSrc   uint32
	IPDst   uint32
	InPort  uint16
	EthType uint16
	VLAN    uint16 // 12 bits significant
	TPSrc   uint16
	TPDst   uint16
	IPProto uint8
}

// Common EtherType and IP protocol numbers used by the workloads.
const (
	EthTypeIPv4 = 0x0800
	EthTypeARP  = 0x0806

	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Key projects the header onto the flowspace match tuple.
func (h Header) Key() flowspace.Key {
	var k flowspace.Key
	k[flowspace.FInPort] = uint64(h.InPort)
	k[flowspace.FEthSrc] = h.EthSrc & 0xFFFFFFFFFFFF
	k[flowspace.FEthDst] = h.EthDst & 0xFFFFFFFFFFFF
	k[flowspace.FEthType] = uint64(h.EthType)
	k[flowspace.FVLAN] = uint64(h.VLAN & 0xFFF)
	k[flowspace.FIPProto] = uint64(h.IPProto)
	k[flowspace.FIPSrc] = uint64(h.IPSrc)
	k[flowspace.FIPDst] = uint64(h.IPDst)
	k[flowspace.FTPSrc] = uint64(h.TPSrc)
	k[flowspace.FTPDst] = uint64(h.TPDst)
	return k
}

// HeaderFromKey reconstructs a Header from a concrete flowspace key.
func HeaderFromKey(k flowspace.Key) Header {
	return Header{
		InPort:  uint16(k[flowspace.FInPort]),
		EthSrc:  k[flowspace.FEthSrc],
		EthDst:  k[flowspace.FEthDst],
		EthType: uint16(k[flowspace.FEthType]),
		VLAN:    uint16(k[flowspace.FVLAN]),
		IPProto: uint8(k[flowspace.FIPProto]),
		IPSrc:   uint32(k[flowspace.FIPSrc]),
		IPDst:   uint32(k[flowspace.FIPDst]),
		TPSrc:   uint16(k[flowspace.FTPSrc]),
		TPDst:   uint16(k[flowspace.FTPDst]),
	}
}

func (h Header) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d proto=%d", IPString(h.IPSrc), h.TPSrc,
		IPString(h.IPDst), h.TPDst, h.IPProto)
}

// IPString renders a uint32 IPv4 address in dotted-quad form.
func IPString(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// EncapReason says why a packet was encapsulated.
type EncapReason uint8

const (
	// EncapRedirect marks a cache-miss packet on its way from an ingress
	// switch to an authority switch.
	EncapRedirect EncapReason = iota + 1
	// EncapTunnel marks a packet tunneled from an authority switch (or an
	// ingress hit) to its egress switch.
	EncapTunnel
)

func (r EncapReason) String() string {
	switch r {
	case EncapRedirect:
		return "redirect"
	case EncapTunnel:
		return "tunnel"
	default:
		return fmt.Sprintf("encap(%d)", uint8(r))
	}
}

// IP4 builds a uint32 IPv4 address from dotted-quad components.
func IP4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}
