package cachepolicy

import (
	"slices"
	"sort"

	"difane/internal/flowspace"
	"difane/internal/tcam"
)

// Region pairs one flow-space partition, named by its index in the list
// PlanAggregation is handed, with its authority's answer — the ground truth
// aggregation must stay sound against. CoverOf returns, for a key inside
// Match, the partition rule that matches it and the cover the miss path
// would cache for it; false when no rule matches or the key has no cover.
type Region struct {
	Match   flowspace.Match
	CoverOf func(k flowspace.Key) (flowspace.Rule, flowspace.Match, bool)
}

// Plan is one aggregation step: install Cover and delete the Replace
// entries it subsumes. The cover is the one the authority generates under
// StrategyCover, so it satisfies the oracle's CacheRuleSound invariant by
// construction.
type Plan struct {
	Region  int
	Cover   flowspace.Rule
	Replace []uint64
}

// PlanAggregation scans a switch's cache entries for groups of at least
// aggregateMin exact-match entries whose keys yield the same cover inside
// one region — near-microflow shards of a single wildcard decision (the
// exact-strategy and cover-sliver fallback paths mint these) — and returns
// one plan per such group. allocID mints each cover rule's table ID.
// Deterministic: plans are ordered by (region, smallest replaced ID).
func (p *Policy) PlanAggregation(entries []tcam.Entry, regions []Region, allocID func() uint64) []Plan {
	type groupKey struct {
		region int
		cover  flowspace.Match
	}
	groups := make(map[groupKey]*Plan)
	for _, e := range entries {
		k, ok := exactKeyOf(e.Rule.Match)
		if !ok {
			continue
		}
		region := -1
		for i := range regions {
			if regions[i].Match.Matches(k) {
				region = i
				break
			}
		}
		if region < 0 {
			continue
		}
		hitRule, cover, ok := regions[region].CoverOf(k)
		if !ok || cover == e.Rule.Match {
			continue // no rule answers this key, or no wider cover exists for it
		}
		if hitRule.Action != e.Rule.Action {
			continue // stale or foreign entry; aggregation must not launder it
		}
		gk := groupKey{region: region, cover: cover}
		g := groups[gk]
		if g == nil {
			g = &Plan{Region: region, Cover: flowspace.Rule{
				Priority: hitRule.Priority, Match: cover, Action: hitRule.Action}}
			groups[gk] = g
		}
		g.Replace = append(g.Replace, e.Rule.ID)
	}

	var plans []Plan
	for _, g := range groups {
		if len(g.Replace) >= aggregateMin {
			slices.Sort(g.Replace)
			plans = append(plans, *g)
		}
	}
	sort.Slice(plans, func(i, j int) bool {
		if plans[i].Region != plans[j].Region {
			return plans[i].Region < plans[j].Region
		}
		return plans[i].Replace[0] < plans[j].Replace[0]
	})
	for i := range plans {
		plans[i].Cover.ID = allocID()
		p.aggregations.Add(1)
		p.aggReplaced.Add(uint64(len(plans[i].Replace)))
	}
	return plans
}

// exactKeyOf extracts the concrete key of a fully exact match, or false
// when any field carries a wildcard bit.
func exactKeyOf(m flowspace.Match) (flowspace.Key, bool) {
	var k flowspace.Key
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		if !m.Fields[f].IsExact(f.Width()) {
			return k, false
		}
		k[f] = m.Fields[f].Value
	}
	return k, true
}
