package core

import (
	"sort"

	"difane/internal/flowspace"
	"difane/internal/proto"
)

// RuleCounters are the aggregated counters for one policy rule.
type RuleCounters struct {
	RuleID  uint64
	Packets uint64
	Bytes   uint64
}

// PolicyCounters aggregates per-policy-rule packet/byte counters across
// the whole deployment: authority-table hits plus every ingress-cache hit,
// with generated cache rules folded back onto the policy rule they stand
// for via the authority's origin tracking. This is the transparency
// property — a controller asking for rule counters sees the same numbers
// it would have seen with the whole policy in one giant TCAM.
//
// Note the one semantic caveat, faithful to the system: a packet that is
// redirected is counted at the authority switch, and subsequent packets of
// the region count at the ingress cache, so no packet is double-counted.
func (n *Network) PolicyCounters() []RuleCounters {
	agg := make(map[uint64]*RuleCounters)
	add := func(origin uint64, pkts, bytes uint64) {
		origin = canonicalPolicyID(origin)
		rc, ok := agg[origin]
		if !ok {
			rc = &RuleCounters{RuleID: origin}
			agg[origin] = rc
		}
		rc.Packets += pkts
		rc.Bytes += bytes
	}

	// Origin resolution: any authority hosting a partition containing the
	// rule can resolve its generated cache IDs. Build one combined map.
	originOf := func(id uint64) (uint64, bool) {
		if id < cacheIDBase {
			return id, true
		}
		for _, a := range n.gen.Handlers {
			if origin, ok := a.OriginOf(id); ok && origin != id {
				return origin, true
			}
		}
		return 0, false
	}

	for _, sw := range n.Switches {
		for _, e := range sw.Table(proto.TableCache).Entries() {
			if e.Packets == 0 && e.Bytes == 0 {
				continue
			}
			origin, ok := originOf(e.Rule.ID)
			if !ok {
				continue
			}
			add(origin, e.Packets, e.Bytes)
		}
		for _, e := range sw.Table(proto.TableAuthority).Entries() {
			if e.Packets == 0 && e.Bytes == 0 {
				continue
			}
			add(AuthorityEntryRuleID(e.Rule.ID), e.Packets, e.Bytes)
		}
	}
	out := make([]RuleCounters, 0, len(agg))
	for _, rc := range agg {
		out = append(out, *rc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RuleID < out[j].RuleID })
	return out
}

// canonicalPolicyID strips the generation band that consistent policy
// updates add to staged authority-rule IDs (policy rule IDs are assumed
// to fit 32 bits, which stageAssignment also relies on).
func canonicalPolicyID(id uint64) uint64 {
	if id >= 1<<32 && id < cacheIDBase {
		return id & 0xFFFFFFFF
	}
	return id
}

// CountersFor returns the aggregated counters for one policy rule.
func (n *Network) CountersFor(ruleID uint64) RuleCounters {
	for _, rc := range n.PolicyCounters() {
		if rc.RuleID == ruleID {
			return rc
		}
	}
	return RuleCounters{RuleID: ruleID}
}

// CompactPolicy removes shadowed rules from a policy, returning the
// compacted list (TCAM order) and the removed IDs. Running it before
// partitioning shrinks every authority switch's table without changing
// semantics.
func CompactPolicy(rules []flowspace.Rule) ([]flowspace.Rule, []uint64) {
	sorted := append([]flowspace.Rule(nil), rules...)
	flowspace.SortRules(sorted)
	var removed []uint64
	kept := make([]flowspace.Rule, 0, len(sorted))
	// Iterate in priority order; test each rule against the kept prefix
	// (a rule shadowed only by later-removed rules stays shadowed by the
	// rules that shadowed those, so checking against kept is sound).
	for i := range sorted {
		candidate := append(append([]flowspace.Rule(nil), kept...), sorted[i])
		if flowspace.Shadowed(candidate, len(candidate)-1) {
			removed = append(removed, sorted[i].ID)
			continue
		}
		kept = append(kept, sorted[i])
	}
	return kept, removed
}
