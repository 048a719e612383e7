package core

import "difane/internal/flowspace"

// VerdictKind classifies a packet's terminal outcome inside a deployment.
// Exactly one verdict is emitted per injected packet, mirroring the
// accounting identity: every packet ends in Delivered or exactly one of
// the Drops counters.
type VerdictKind uint8

// Terminal packet outcomes.
const (
	// VerdictDelivered: the packet reached its egress switch.
	VerdictDelivered VerdictKind = iota
	// VerdictPolicyDrop: the packet matched an operator deny rule.
	VerdictPolicyDrop
	// VerdictHole: no rule covered the packet (or a non-data-plane action
	// won), counted in Drops.Hole.
	VerdictHole
	// VerdictQueueDrop: shed by an overloaded authority (or, in the
	// baseline, the controller) queue.
	VerdictQueueDrop
	// VerdictUnreachable: the delivery or redirect path was partitioned
	// away (dead ingress, dead egress, withdrawn partition rule).
	VerdictUnreachable
)

func (k VerdictKind) String() string {
	switch k {
	case VerdictDelivered:
		return "delivered"
	case VerdictPolicyDrop:
		return "policy-drop"
	case VerdictHole:
		return "hole"
	case VerdictQueueDrop:
		return "queue-drop"
	case VerdictUnreachable:
		return "unreachable"
	default:
		return "verdict(?)"
	}
}

// VerdictEvent reports one packet's terminal outcome to an Observer.
type VerdictEvent struct {
	Key  flowspace.Key
	Seq  uint64
	Kind VerdictKind
	// Egress is the delivery switch, valid when Kind == VerdictDelivered.
	Egress uint32
	// Detour is true when delivery went through an authority redirect.
	Detour bool
}
