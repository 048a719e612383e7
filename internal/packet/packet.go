// Package packet models the packets that flow through the simulated and
// wire-mode DIFANE networks: a typed header tuple, a compact binary wire
// format (Ethernet → IPv4 → L4 in the gopacket layered style), and the
// DIFANE encapsulation header used to tunnel cache-miss packets to
// authority switches and tunneled packets to egress switches.
package packet

import (
	"encoding/binary"
	"errors"
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

// Packet is a packet in flight: its header, payload size (payload contents
// are never materialized — the simulator only needs sizes), and optional
// DIFANE encapsulation state.
type Packet struct {
	Header  Header
	Size    int // total bytes on the wire, for counters and byte rates
	Encap   *Encap
	FlowSeq uint64 // sequence of the packet within its flow (0 = first)
	FlowID  uint64 // workload-assigned flow identity, for tracing
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

// Encap is the DIFANE encapsulation header. Ingress is the switch that
// encapsulated the packet (so the authority switch knows where to install
// the cache rule); Target is the switch the tunnel terminates at.
type Encap struct {
	Reason  EncapReason
	Ingress uint32
	Target  uint32
}

// --- Wire format -----------------------------------------------------------
//
// The wire format is deliberately small and fixed-layout:
//
//   [1B kind] [encap? 9B] [eth 14B] [vlan? 4B] [ipv4 20B-ish: 12B used] [l4 4B]
//
// kind bit0 set => encap header present, bit1 set => VLAN tag present.

const (
	flagEncap = 1 << 0
	flagVLAN  = 1 << 1
)

// ErrTruncated is returned when a buffer is too short to decode.
var ErrTruncated = errors.New("packet: truncated")

// MaxWireLen is the maximum encoded header length.
const MaxWireLen = 1 + 9 + 14 + 4 + 12 + 4

// AppendWire appends the encoded packet headers to b and returns the
// extended slice. Payload bytes are not encoded; Size travels in the
// simulator/protocol metadata.
func (p *Packet) AppendWire(b []byte) []byte {
	return p.AppendWireEncap(b, p.Encap)
}

// AppendWireEncap is AppendWire for callers that carry the encapsulation
// state outside the Packet (wire mode's burst data plane keeps it by value
// to avoid a per-hop heap allocation); e == nil encodes no encapsulation,
// and p.Encap is ignored.
func (p *Packet) AppendWireEncap(b []byte, e *Encap) []byte {
	kind := byte(0)
	if e != nil {
		kind |= flagEncap
	}
	if p.Header.VLAN != 0 {
		kind |= flagVLAN
	}
	b = append(b, kind)
	if e != nil {
		b = append(b, byte(e.Reason))
		b = binary.BigEndian.AppendUint32(b, e.Ingress)
		b = binary.BigEndian.AppendUint32(b, e.Target)
	}
	var mac [8]byte
	binary.BigEndian.PutUint64(mac[:], p.Header.EthDst<<16)
	b = append(b, mac[:6]...)
	binary.BigEndian.PutUint64(mac[:], p.Header.EthSrc<<16)
	b = append(b, mac[:6]...)
	b = binary.BigEndian.AppendUint16(b, p.Header.EthType)
	if kind&flagVLAN != 0 {
		b = binary.BigEndian.AppendUint16(b, 0x8100)
		b = binary.BigEndian.AppendUint16(b, p.Header.VLAN&0xFFF)
	}
	// Compact IPv4: proto, src, dst, plus in-port carried as metadata.
	b = append(b, p.Header.IPProto)
	b = append(b, 0) // reserved
	b = binary.BigEndian.AppendUint16(b, p.Header.InPort)
	b = binary.BigEndian.AppendUint32(b, p.Header.IPSrc)
	b = binary.BigEndian.AppendUint32(b, p.Header.IPDst)
	b = binary.BigEndian.AppendUint16(b, p.Header.TPSrc)
	b = binary.BigEndian.AppendUint16(b, p.Header.TPDst)
	return b
}

// DecodeWire parses an encoded packet header, returning the decoded packet
// and the number of bytes consumed. The decode writes into p in place
// (DecodingLayerParser style); an encapsulation header, if present, is the
// one allocation (see DecodeWireEncap for the allocation-free variant).
func (p *Packet) DecodeWire(b []byte) (int, error) {
	var e Encap
	n, hasEncap, err := p.DecodeWireEncap(b, &e)
	if err != nil {
		return n, err
	}
	if hasEncap {
		p.Encap = &e
	}
	return n, nil
}

// DecodeWireEncap is DecodeWire writing any encapsulation header into *e
// (caller-provided storage) instead of allocating; hasEncap reports whether
// e was filled. p.Encap is always left nil.
func (p *Packet) DecodeWireEncap(b []byte, e *Encap) (n int, hasEncap bool, err error) {
	if len(b) < 1 {
		return 0, false, ErrTruncated
	}
	kind := b[0]
	off := 1
	p.Encap = nil
	if kind&flagEncap != 0 {
		if len(b) < off+9 {
			return 0, false, ErrTruncated
		}
		*e = Encap{
			Reason:  EncapReason(b[off]),
			Ingress: binary.BigEndian.Uint32(b[off+1:]),
			Target:  binary.BigEndian.Uint32(b[off+5:]),
		}
		hasEncap = true
		off += 9
	}
	if len(b) < off+14 {
		return 0, false, ErrTruncated
	}
	var mac [8]byte
	copy(mac[:6], b[off:])
	p.Header.EthDst = binary.BigEndian.Uint64(mac[:]) >> 16
	copy(mac[:6], b[off+6:])
	p.Header.EthSrc = binary.BigEndian.Uint64(mac[:]) >> 16
	p.Header.EthType = binary.BigEndian.Uint16(b[off+12:])
	off += 14
	p.Header.VLAN = 0
	if kind&flagVLAN != 0 {
		if len(b) < off+4 {
			return 0, false, ErrTruncated
		}
		p.Header.VLAN = binary.BigEndian.Uint16(b[off+2:]) & 0xFFF
		off += 4
	}
	if len(b) < off+12+4 {
		return 0, false, ErrTruncated
	}
	p.Header.IPProto = b[off]
	p.Header.InPort = binary.BigEndian.Uint16(b[off+2:])
	p.Header.IPSrc = binary.BigEndian.Uint32(b[off+4:])
	p.Header.IPDst = binary.BigEndian.Uint32(b[off+8:])
	off += 12
	p.Header.TPSrc = binary.BigEndian.Uint16(b[off:])
	p.Header.TPDst = binary.BigEndian.Uint16(b[off+2:])
	off += 4
	return off, hasEncap, nil
}

// Clone returns a deep copy of the packet.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.Encap != nil {
		e := *p.Encap
		q.Encap = &e
	}
	return &q
}

// Encapsulate wraps the packet for redirection/tunneling.
func (p *Packet) Encapsulate(reason EncapReason, ingress, target uint32) {
	p.Encap = &Encap{Reason: reason, Ingress: ingress, Target: target}
}

// Decapsulate strips the encapsulation header, returning it.
func (p *Packet) Decapsulate() *Encap {
	e := p.Encap
	p.Encap = nil
	return e
}

// IP4 builds a uint32 IPv4 address from dotted-quad components.
func IP4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}
