// Package proto defines the control-plane protocol spoken between the
// DIFANE controller, authority switches, and ingress switches in wire mode
// (and reused, without serialization, inside the simulator).
//
// Framing is a 4-byte big-endian length followed by a 1-byte message type
// and the message payload. Rules are encoded with a field-presence bitmap
// so sparse matches (the common case) stay small.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"difane/internal/flowspace"
)

// MsgType identifies a control message.
type MsgType uint8

const (
	// MsgFlowMod adds or removes a rule in one of a switch's tables.
	MsgFlowMod MsgType = iota + 1
	// MsgCacheInstall carries cache rules from an authority switch to an
	// ingress switch.
	MsgCacheInstall
	// MsgBarrierReq / MsgBarrierReply fence message processing.
	MsgBarrierReq
	// MsgBarrierReply acknowledges a barrier.
	MsgBarrierReply
	// MsgBFDControl carries one BFD-style session control packet (state,
	// poll/final/demand flags, discriminators, timing parameters) in either
	// direction of a controller↔switch pair. The async session state
	// machines in internal/bfd drive these over the control channel to
	// detect failures within a detect-multiplier of the (millisecond-class)
	// transmit interval.
	MsgBFDControl
)

var msgNames = map[MsgType]string{
	MsgFlowMod: "flow-mod", MsgCacheInstall: "cache-install",
	MsgBarrierReq: "barrier-req", MsgBarrierReply: "barrier-reply",
	MsgBFDControl: "bfd-control",
}

func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Table identifies which of a switch's rule tables a FlowMod targets.
type Table uint8

const (
	TableCache Table = iota + 1
	TableAuthority
	TablePartition
)

func (t Table) String() string {
	switch t {
	case TableCache:
		return "cache"
	case TableAuthority:
		return "authority"
	case TablePartition:
		return "partition"
	default:
		return fmt.Sprintf("table(%d)", uint8(t))
	}
}

// FlowModOp says whether a FlowMod adds or deletes.
type FlowModOp uint8

const (
	OpAdd FlowModOp = iota + 1
	OpDelete
)

func (o FlowModOp) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Message is any control message.
type Message interface {
	Type() MsgType
	appendPayload(b []byte) []byte
	decodePayload(b []byte) error
}

// FlowMod adds or deletes a rule with an idle timeout (seconds; 0 = none).
//
// Epoch fences the install: a switch tracks the highest epoch it has
// accepted and rejects any FlowMod carrying a lower, nonzero epoch, so a
// recovered (or lagging pre-crash) controller cannot clobber newer state. Epoch 0 means unfenced: installs
// originating in the data plane (authority cache installs, local
// failover) bypass the fence.
type FlowMod struct {
	Table Table
	Op    FlowModOp
	Rule  flowspace.Rule
	Idle  float64
	Epoch uint64
}

// CacheInstall carries cache rules from an authority to an ingress switch.
// Trace, when nonzero, is the sampled trace ID of the packet whose miss
// triggered the install, so the install lands in that packet's journey.
type CacheInstall struct {
	Ingress uint32
	Trace   uint64
	Rules   []FlowMod
}

// BarrierReq fences processing; the peer replies with the same XID.
type BarrierReq struct{ XID uint32 }

// BarrierReply acknowledges a BarrierReq.
type BarrierReply struct{ XID uint32 }

// BFDControl is one BFD session control packet. Node routes the packet to
// the right per-switch session on the controller side; the remaining
// fields mirror internal/bfd's Packet (State uses bfd.State's encoding,
// intervals are nanoseconds).
type BFDControl struct {
	Node          uint32
	State         uint8
	MyDiscr       uint32
	YourDiscr     uint32
	DesiredMinTx  uint64
	RequiredMinRx uint64
	DetectMult    uint8
}

func (*FlowMod) Type() MsgType      { return MsgFlowMod }
func (*CacheInstall) Type() MsgType { return MsgCacheInstall }
func (*BarrierReq) Type() MsgType   { return MsgBarrierReq }
func (*BarrierReply) Type() MsgType { return MsgBarrierReply }
func (*BFDControl) Type() MsgType   { return MsgBFDControl }

// --- Encoding helpers -------------------------------------------------------

var (
	// ErrTruncated reports a payload shorter than its structure requires.
	ErrTruncated = errors.New("proto: truncated message")
	// ErrUnknownType reports an unrecognized message type byte.
	ErrUnknownType = errors.New("proto: unknown message type")
	// ErrTooLarge reports a frame exceeding MaxFrame.
	ErrTooLarge = errors.New("proto: frame too large")
)

// MaxFrame bounds a single message frame, defending the decoder against
// corrupt length prefixes.
const MaxFrame = 1 << 22

type reader struct {
	b   []byte
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.err = ErrTruncated
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}
func (r *reader) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}
func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}
func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func appendU16(b []byte, v uint16) []byte  { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte  { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte  { return binary.BigEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

// AppendRule encodes a rule with a field-presence bitmap.
func AppendRule(b []byte, r flowspace.Rule) []byte {
	b = appendU64(b, r.ID)
	b = appendU32(b, uint32(r.Priority))
	b = append(b, byte(r.Action.Kind))
	b = appendU32(b, r.Action.Arg)
	var bitmap uint16
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		if r.Match.Fields[f].Mask != 0 {
			bitmap |= 1 << uint(f)
		}
	}
	b = appendU16(b, bitmap)
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		if bitmap&(1<<uint(f)) != 0 {
			b = appendU64(b, r.Match.Fields[f].Value)
			b = appendU64(b, r.Match.Fields[f].Mask)
		}
	}
	return b
}

func decodeRule(r *reader) flowspace.Rule {
	var rule flowspace.Rule
	rule.ID = r.u64()
	rule.Priority = int32(r.u32())
	rule.Action.Kind = flowspace.ActionKind(r.u8())
	rule.Action.Arg = r.u32()
	bitmap := r.u16()
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		if bitmap&(1<<uint(f)) != 0 {
			rule.Match.Fields[f].Value = r.u64()
			rule.Match.Fields[f].Mask = r.u64()
		}
	}
	return rule
}

// --- Per-message payloads ---------------------------------------------------

func appendFlowModBody(b []byte, m *FlowMod) []byte {
	b = append(b, byte(m.Table), byte(m.Op))
	b = AppendRule(b, m.Rule)
	b = appendF64(b, m.Idle)
	b = appendU64(b, m.Epoch)
	return b
}

// flowModMinSize is the smallest possible encoded FlowMod body (all match
// fields wildcarded): table+op (2) + rule header (19) + idle/epoch (16).
// Used to bound CacheInstall preallocation against forged counts.
const flowModMinSize = 2 + 19 + 16

func decodeFlowModBody(r *reader) FlowMod {
	var m FlowMod
	m.Table = Table(r.u8())
	m.Op = FlowModOp(r.u8())
	m.Rule = decodeRule(r)
	m.Idle = r.f64()
	m.Epoch = r.u64()
	return m
}

func (m *FlowMod) appendPayload(b []byte) []byte { return appendFlowModBody(b, m) }
func (m *FlowMod) decodePayload(b []byte) error {
	r := &reader{b: b}
	*m = decodeFlowModBody(r)
	return r.err
}

func (m *CacheInstall) appendPayload(b []byte) []byte {
	b = appendU32(b, m.Ingress)
	b = appendU64(b, m.Trace)
	b = appendU32(b, uint32(len(m.Rules)))
	for i := range m.Rules {
		b = appendFlowModBody(b, &m.Rules[i])
	}
	return b
}
func (m *CacheInstall) decodePayload(b []byte) error {
	r := &reader{b: b}
	m.Ingress = r.u32()
	m.Trace = r.u64()
	n := int(r.u32())
	if r.err != nil {
		return r.err
	}
	if n > MaxFrame/16 {
		return ErrTooLarge
	}
	// A forged count larger than the remaining payload could possibly hold
	// must not drive the preallocation below: each encoded rule is at least
	// flowModMinSize bytes, so anything bigger is already truncated.
	if n > len(r.b)/flowModMinSize {
		return ErrTruncated
	}
	m.Rules = nil
	if n > 0 {
		m.Rules = make([]FlowMod, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.Rules = append(m.Rules, decodeFlowModBody(r))
	}
	return r.err
}

func (m *BarrierReq) appendPayload(b []byte) []byte { return appendU32(b, m.XID) }
func (m *BarrierReq) decodePayload(b []byte) error {
	r := &reader{b: b}
	m.XID = r.u32()
	return r.err
}

func (m *BarrierReply) appendPayload(b []byte) []byte { return appendU32(b, m.XID) }
func (m *BarrierReply) decodePayload(b []byte) error {
	r := &reader{b: b}
	m.XID = r.u32()
	return r.err
}

func (m *BFDControl) appendPayload(b []byte) []byte {
	b = appendU32(b, m.Node)
	b = append(b, m.State)
	b = appendU32(b, m.MyDiscr)
	b = appendU32(b, m.YourDiscr)
	b = appendU64(b, m.DesiredMinTx)
	b = appendU64(b, m.RequiredMinRx)
	return append(b, m.DetectMult)
}
func (m *BFDControl) decodePayload(b []byte) error {
	r := &reader{b: b}
	m.Node = r.u32()
	m.State = r.u8()
	m.MyDiscr = r.u32()
	m.YourDiscr = r.u32()
	m.DesiredMinTx = r.u64()
	m.RequiredMinRx = r.u64()
	m.DetectMult = r.u8()
	return r.err
}

// --- Framing ----------------------------------------------------------------

// Encode appends the framed message to b.
func Encode(b []byte, m Message) []byte {
	start := len(b)
	b = appendU32(b, 0) // length placeholder
	b = append(b, byte(m.Type()))
	b = m.appendPayload(b)
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// WriteMessage writes one framed message to w.
//
// The encode buffer starts at a capacity covering every fixed-size
// message and a typical CacheInstall, so the common write is one
// allocation instead of append's doubling ladder from nil.
func WriteMessage(w io.Writer, m Message) error {
	buf := Encode(make([]byte, 0, 192), m)
	_, err := w.Write(buf)
	return err
}

// ReadMessage reads one framed message from r.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length < 1 {
		return nil, ErrTruncated
	}
	if length > MaxFrame {
		return nil, ErrTooLarge
	}
	payload := make([]byte, length-1)
	if len(payload) > 0 {
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
	}
	return decodeBody(MsgType(hdr[4]), payload)
}

// DecodeFrame decodes one framed message from the front of b, returning
// the message and the number of bytes consumed. It never panics on
// malformed or truncated input — errors are ErrTruncated, ErrTooLarge, or
// ErrUnknownType, with zero bytes consumed.
func DecodeFrame(b []byte) (Message, int, error) {
	if len(b) < 5 {
		return nil, 0, ErrTruncated
	}
	length := binary.BigEndian.Uint32(b[:4])
	if length < 1 {
		return nil, 0, ErrTruncated
	}
	if length > MaxFrame {
		return nil, 0, ErrTooLarge
	}
	total := 4 + int(length)
	if len(b) < total {
		return nil, 0, ErrTruncated
	}
	m, err := decodeBody(MsgType(b[4]), b[5:total])
	if err != nil {
		return nil, 0, err
	}
	return m, total, nil
}

// decodeBody builds and decodes a message of type t from its payload.
func decodeBody(t MsgType, payload []byte) (Message, error) {
	m, err := newMessage(t)
	if err != nil {
		return nil, err
	}
	if err := m.decodePayload(payload); err != nil {
		return nil, err
	}
	return m, nil
}

func newMessage(t MsgType) (Message, error) {
	switch t {
	case MsgFlowMod:
		return &FlowMod{}, nil
	case MsgCacheInstall:
		return &CacheInstall{}, nil
	case MsgBarrierReq:
		return &BarrierReq{}, nil
	case MsgBarrierReply:
		return &BarrierReply{}, nil
	case MsgBFDControl:
		return &BFDControl{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
}
