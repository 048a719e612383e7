// Package telemetry is the observability layer for a running DIFANE
// deployment: a lock-free flight recorder of fixed-size trace events, a
// pull-model metrics registry rendered as Prometheus text or expvar-style
// JSON, and an optional HTTP server exposing both (plus pprof) while the
// cluster serves traffic.
//
// Beyond the standard library it imports only the leaf packages flowspace,
// metrics and packet, so core, wire, and the commands can all depend on it
// without cycles.
package telemetry

import (
	"fmt"
	"strconv"
	"strings"

	"difane/internal/packet"
)

// EventKind identifies what a trace event records.
type EventKind uint8

// Event kinds. The data-plane kinds (Forward..Verdict) fire per packet
// when tracing is on; the control-plane kinds fire on rare transitions
// and are cheap regardless.
const (
	EvNone EventKind = iota

	// Data plane.
	EvForward   // ingress matched a forwarding rule (cache or authority hit)
	EvRedirect  // ingress matched a partition rule; packet sent to an authority
	EvAuthority // an authority resolved a redirected packet against its rules
	EvVerdict   // terminal outcome at a node: delivered or dropped (see Verdict)
	EvShed      // overload protection dropped work (redirect or cache install)

	// Rule churn (fired from TCAM install/evict/expire hooks).
	EvInstall
	EvEvict
	EvExpire

	// Failures and recovery.
	EvDeath         // failure detector declared a switch dead
	EvRevive        // a dead switch came back; its rules were restored
	EvFailoverLocal // ingress repointed a partition rule onto a backup authority
	EvPromote       // controller withdrew a dead authority's partition rules

	// Control plane.
	EvEpochRaise     // a switch's epoch fence advanced (Value = new epoch)
	EvEpochReject    // a stale-epoch FlowMod was refused (Value = its epoch)
	EvReconnect      // a switch re-established its control connection
	EvControllerDown // the controller was lost; control connections hold
	EvControllerUp   // the controller came back (Value = its new epoch)

	// BFD failure detection and controller HA.
	EvBFDUp         // a BFD session reached Up (Peer = remote discriminator)
	EvBFDDown       // an established BFD session left Up
	EvLeaderElected // a controller replica won an election (Peer = id, Value = epoch)

	// Forensics spans (appended — kind codes are stable across versions).
	EvIngress          // a sampled packet entered the data plane at Node
	EvInstallTriggered // an authority decided cache rules for Peer (the ingress)
)

var kindNames = map[EventKind]string{
	EvNone:             "none",
	EvForward:          "forward",
	EvRedirect:         "redirect",
	EvAuthority:        "authority",
	EvVerdict:          "verdict",
	EvShed:             "shed",
	EvInstall:          "install",
	EvEvict:            "evict",
	EvExpire:           "expire",
	EvDeath:            "death",
	EvRevive:           "revive",
	EvFailoverLocal:    "failover-local",
	EvPromote:          "promote",
	EvEpochRaise:       "epoch-raise",
	EvEpochReject:      "epoch-reject",
	EvReconnect:        "reconnect",
	EvControllerDown:   "controller-down",
	EvControllerUp:     "controller-up",
	EvBFDUp:            "bfd-up",
	EvBFDDown:          "bfd-down",
	EvLeaderElected:    "leader-elected",
	EvIngress:          "ingress",
	EvInstallTriggered: "install-triggered",
}

// String returns the kind's wire name (used in JSON and difanectl output).
func (k EventKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString parses a kind name as produced by String. Returns EvNone
// and false for unknown names.
func KindFromString(s string) (EventKind, bool) {
	for k, name := range kindNames {
		if name == s {
			return k, true
		}
	}
	return EvNone, false
}

// ClusterNode is the reserved Event.Node value for cluster-scope events
// that belong to no single switch (controller outages). Recorders built
// with it in their node list give it its own ring.
const ClusterNode uint32 = 0xFFFFFFFF

// Table codes for rule events, matching the DIFANE lookup order.
const (
	TableNone      uint8 = 0
	TableCache     uint8 = 1
	TableAuthority uint8 = 2
	TablePartition uint8 = 3
)

// TableName renders a table code.
func TableName(t uint8) string {
	switch t {
	case TableCache:
		return "cache"
	case TableAuthority:
		return "authority"
	case TablePartition:
		return "partition"
	default:
		return ""
	}
}

// Verdict / detail codes carried in Event.Verdict.
const (
	VNone         uint8 = 0
	VDelivered    uint8 = 1
	VDropPolicy   uint8 = 2
	VDropHole     uint8 = 3
	VDropQueue    uint8 = 4
	VUnreachable  uint8 = 5
	VShedRedirect uint8 = 6 // EvShed: redirect token bucket ran dry
	VShedInstall  uint8 = 7 // EvShed: cache-install token bucket ran dry
)

// VerdictName renders a verdict/detail code.
func VerdictName(v uint8) string {
	switch v {
	case VDelivered:
		return "delivered"
	case VDropPolicy:
		return "drop-policy"
	case VDropHole:
		return "drop-hole"
	case VDropQueue:
		return "drop-queue"
	case VUnreachable:
		return "drop-unreachable"
	case VShedRedirect:
		return "shed-redirect"
	case VShedInstall:
		return "shed-install"
	default:
		return ""
	}
}

// FlowTuple identifies the flow an event belongs to. Hash is a stable
// 64-bit digest of the 5-tuple, usable as a compact filter key.
type FlowTuple struct {
	Hash  uint64
	IPSrc uint32
	IPDst uint32
	TPSrc uint16
	TPDst uint16
	Proto uint8
}

// HashFlow digests a 5-tuple with FNV-1a, the same function FlowTuple
// carries in Hash. Zero-valued tuples hash to a nonzero value, so 0 can
// mean "no flow filter".
func HashFlow(ipSrc, ipDst uint32, tpSrc, tpDst uint16, proto uint8) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range [13]byte{
		byte(ipSrc >> 24), byte(ipSrc >> 16), byte(ipSrc >> 8), byte(ipSrc),
		byte(ipDst >> 24), byte(ipDst >> 16), byte(ipDst >> 8), byte(ipDst),
		byte(tpSrc >> 8), byte(tpSrc),
		byte(tpDst >> 8), byte(tpDst),
		proto,
	} {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// Tuple builds a FlowTuple, computing the hash.
func Tuple(ipSrc, ipDst uint32, tpSrc, tpDst uint16, proto uint8) FlowTuple {
	return FlowTuple{
		Hash:  HashFlow(ipSrc, ipDst, tpSrc, tpDst, proto),
		IPSrc: ipSrc, IPDst: ipDst,
		TPSrc: tpSrc, TPDst: tpDst,
		Proto: proto,
	}
}

// Event is one fixed-size flight-recorder record. Field meaning varies by
// Kind:
//
//   - Node is always the switch where the event happened (or the subject
//     switch for death/revive/promote).
//   - Peer is the other switch involved: redirect target, tunnel egress,
//     redirect origin (EvAuthority), backup target (EvFailoverLocal).
//   - Table/RuleID describe the matched or installed rule.
//   - Verdict carries a V* code for EvVerdict/EvShed.
//   - Value is kind-specific: delivery latency in ns for EvVerdict
//     deliveries, the epoch for epoch events.
type Event struct {
	Seq     uint64 // per-node ring sequence, assigned at publish
	TS      int64  // ns since the recorder started
	Kind    EventKind
	Node    uint32
	Peer    uint32
	Table   uint8
	Verdict uint8
	RuleID  uint64
	Value   uint64
	// Trace is the sampled per-packet trace ID joining this event into a
	// cross-node journey (0 = packet not sampled).
	Trace uint64
	Flow  FlowTuple
}

// EventJSON is the JSON shape served by /trace and decoded by difanectl.
type EventJSON struct {
	Seq     uint64 `json:"seq"`
	TS      int64  `json:"ts_ns"`
	Kind    string `json:"kind"`
	Node    uint32 `json:"node"`
	Peer    uint32 `json:"peer,omitempty"`
	Table   string `json:"table,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	RuleID  uint64 `json:"rule_id,omitempty"`
	Value   uint64 `json:"value,omitempty"`
	Trace   uint64 `json:"trace,omitempty"`
	Flow    uint64 `json:"flow,omitempty"`
	Src     string `json:"src,omitempty"`
	Dst     string `json:"dst,omitempty"`
	Proto   uint8  `json:"proto,omitempty"`
}

// JSON converts an Event to its wire shape.
func (e Event) JSON() EventJSON {
	j := EventJSON{
		Seq:     e.Seq,
		TS:      e.TS,
		Kind:    e.Kind.String(),
		Node:    e.Node,
		Peer:    e.Peer,
		Table:   TableName(e.Table),
		Verdict: VerdictName(e.Verdict),
		RuleID:  e.RuleID,
		Value:   e.Value,
		Trace:   e.Trace,
		Flow:    e.Flow.Hash,
		Proto:   e.Flow.Proto,
	}
	if e.Flow.IPSrc != 0 || e.Flow.TPSrc != 0 {
		j.Src = ipPort(e.Flow.IPSrc, e.Flow.TPSrc)
	}
	if e.Flow.IPDst != 0 || e.Flow.TPDst != 0 {
		j.Dst = ipPort(e.Flow.IPDst, e.Flow.TPDst)
	}
	return j
}

func ipPort(ip uint32, port uint16) string {
	var b strings.Builder
	b.WriteString(packet.IPString(ip))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(int(port)))
	return b.String()
}

// ParseIP parses a dotted-quad IPv4 address into the uint32 form events
// carry. Returns 0 and false on malformed input.
func ParseIP(s string) (uint32, bool) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, false
	}
	var ip uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return 0, false
		}
		ip = ip<<8 | uint32(n)
	}
	return ip, true
}
