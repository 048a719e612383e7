package core

import (
	"fmt"
	"sort"

	"difane/internal/flowspace"
	"difane/internal/proto"
)

// CacheStrategy selects how an authority switch turns a rule hit into
// cache rules for the ingress switch.
type CacheStrategy int

const (
	// StrategyCover generates a single wildcard cache rule covering the
	// packet, clipped to the partition and carved out of every
	// higher-priority overlapping rule — DIFANE's wildcard-safe caching.
	StrategyCover CacheStrategy = iota
	// StrategyDependent caches the matched rule together with all of its
	// higher-priority overlapping rules (clipped to the partition). Simple
	// and safe, but burns cache entries on deep dependency chains.
	StrategyDependent
	// StrategyExact caches a microflow exact-match rule for just this
	// header — the Ethane-style fallback, safe but per-flow.
	StrategyExact
)

func (s CacheStrategy) String() string {
	switch s {
	case StrategyCover:
		return "cover"
	case StrategyDependent:
		return "dependent"
	case StrategyExact:
		return "exact"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// cacheIDBase offsets generated cache-rule IDs away from policy rule IDs.
// A generated ID is cacheIDBase + switch<<36 + (RegionIndex+1)<<24 + a
// per-Authority counter: every (switch, partition) pair mints from a
// range of its own, so two partitions hosted on one switch never hand the
// same ID to two different cache rules (an ingress cache replaces by ID,
// and flows of the two partitions would evict each other for ever). 16k
// switch IDs × 4095 partitions × 16M rules stay below partitionIDBase
// (1<<50). The counter wraps inside its 24 bits: the rule it then mints
// over is 16M installs old, and a carry would mint in the next
// partition's range.
const (
	cacheIDBase      uint64 = 1 << 40
	cacheIDSlotShift        = 24
	cacheIDHostShift        = 36
)

// Authority is the control logic an authority switch runs for one
// partition: answer cache misses with a forwarding decision plus cache
// rules for the ingress switch.
type Authority struct {
	// SwitchID is the switch hosting this partition.
	SwitchID uint32
	// Partition holds the region and its clipped rules in TCAM order
	// (NewAuthority sorts a copy of rules handed over in any other): the
	// miss path's first match is the matching rule, and everything a rule
	// depends on sits above it.
	Partition Partition
	// Strategy picks the cache-rule generation scheme.
	Strategy CacheStrategy
	// RegionIndex is the partition's index in the network assignment (−1
	// when unknown): the key the cost-aware cache policy tracks per-region
	// statistics and adapted idle timeouts under.
	RegionIndex int
	// CacheIdleTimeout / CacheHardTimeout are applied to generated cache
	// rules (seconds, 0 = none). Change them only through
	// SetCacheTimeouts: memoized HandleMiss results bake the values into
	// their FlowMods, so a bare field write silently keeps issuing the old
	// timeouts for every already-seen flow.
	CacheIdleTimeout float64
	CacheHardTimeout float64

	// Misses counts handled cache misses; CacheRulesSent counts generated
	// cache rules.
	Misses         uint64
	CacheRulesSent uint64

	nextID uint64
	// originOf maps generated cache-rule IDs back to the policy rule they
	// stand for, preserving per-policy-rule accounting.
	originOf map[uint64]uint64
	// memo caches HandleMiss results by exact key. A flow whose ingress
	// cache rule has not landed yet redirects every packet here, and the
	// walk down the rule list plus cover synthesis costs some thirty memo
	// hits — recomputing it per packet of the same flow melts the
	// authority under a redirect storm. Memoized results also pin the
	// generated rule ID, so repeat misses refresh the same ingress cache
	// entry instead of installing a duplicate under a fresh ID. The memo
	// dies with the Authority, which is rebuilt on every partition or
	// policy change, so it can never serve a stale partition's answer.
	memo map[flowspace.Key]MissResult
	// deps[i] holds the indices of the higher-precedence rules overlapping
	// Partition.Rules[i] — what a cover of rule i is carved out of and what
	// the dependent strategy caches beside it. It is a property of the
	// partition, not of the packet, so it is worked out once, on the first
	// miss rule i answers (nil until then, never nil after), not per miss.
	deps [][]int
}

// memoCap bounds the per-authority miss memo; when full it is flushed
// wholesale (repopulating costs one CoverFor per live flow, and tracking
// recency would put map bookkeeping on every memoized hit).
const memoCap = 8192

// NewAuthority builds the authority logic for a partition.
func NewAuthority(switchID uint32, p Partition, strategy CacheStrategy) *Authority {
	if !sort.SliceIsSorted(p.Rules, func(i, j int) bool { return p.Rules[i].Before(p.Rules[j]) }) {
		p.Rules = append([]flowspace.Rule(nil), p.Rules...)
		flowspace.SortRules(p.Rules)
	}
	return &Authority{
		SwitchID:    switchID,
		Partition:   p,
		Strategy:    strategy,
		RegionIndex: -1,
		originOf:    make(map[uint64]uint64),
	}
}

// SetCacheTimeouts updates the timeouts stamped onto generated cache
// rules. On a material change the miss memo is flushed: its entries carry
// fully-built FlowMods with the old Idle/Hard baked in, and serving those
// would pin every known flow to the superseded timeouts until the memo
// happened to cycle.
func (a *Authority) SetCacheTimeouts(idle, hard float64) {
	if a.CacheIdleTimeout == idle && a.CacheHardTimeout == hard {
		return
	}
	a.CacheIdleTimeout = idle
	a.CacheHardTimeout = hard
	clear(a.memo)
}

// OriginOf maps a generated cache-rule ID back to its policy rule ID (the
// ID itself for rules cached verbatim).
func (a *Authority) OriginOf(cacheID uint64) (uint64, bool) {
	if cacheID < cacheIDBase {
		return cacheID, true
	}
	id, ok := a.originOf[cacheID]
	return id, ok
}

func (a *Authority) allocID(origin uint64) uint64 {
	a.nextID = (a.nextID + 1) & (1<<cacheIDSlotShift - 1)
	id := cacheIDBase + uint64(a.SwitchID)<<cacheIDHostShift +
		uint64(a.RegionIndex+1)<<cacheIDSlotShift + a.nextID
	a.originOf[id] = origin
	return id
}

// MissResult is the authority's answer to one redirected packet.
type MissResult struct {
	// Rule is the policy rule that matched (clipped to the partition).
	Rule flowspace.Rule
	// CacheMods are the flow-mods to install at the ingress switch.
	CacheMods []proto.FlowMod
	// OK is false when no rule in the partition matches the packet — a
	// policy hole (the packet is dropped).
	OK bool
}

// HandleMiss processes a redirected packet: find the matching rule, decide
// the action, and generate ingress cache rules per the strategy. Repeat
// misses for a key already answered return the memoized result — the same
// rule, the same cache mods, the same generated IDs. Callers must treat
// the returned CacheMods as read-only.
func (a *Authority) HandleMiss(k flowspace.Key) MissResult {
	a.Misses++
	if res, ok := a.memo[k]; ok {
		a.CacheRulesSent += uint64(len(res.CacheMods))
		return res
	}
	res := a.handleMissSlow(k)
	if a.memo == nil {
		a.memo = make(map[flowspace.Key]MissResult)
	} else if len(a.memo) >= memoCap {
		clear(a.memo)
	}
	a.memo[k] = res
	return res
}

func (a *Authority) handleMissSlow(k flowspace.Key) MissResult {
	rules := a.Partition.Rules
	hit := flowspace.FirstMatch(rules, k)
	if hit < 0 {
		return MissResult{}
	}
	r := &rules[hit]

	var mods []proto.FlowMod
	if a.Strategy == StrategyDependent {
		// The matched rule plus everything above it that overlaps — cached
		// verbatim (already clipped to the partition), so the ingress cache
		// reproduces the partition's semantics for this region.
		deps := a.dependencies(hit)
		mods = make([]proto.FlowMod, 1, 1+len(deps))
		mods[0] = a.cacheMod(*r)
		for _, j := range deps {
			mods = append(mods, a.cacheMod(rules[j]))
		}
	} else {
		match, ok := flowspace.Match{}, false
		if a.Strategy == StrategyCover {
			match, ok = a.cover(hit, &k)
		}
		if !ok { // StrategyExact, or a packet outside the region
			match = exactMatch(k)
		}
		mods = []proto.FlowMod{a.cacheMod(flowspace.Rule{
			ID: a.allocID(r.ID), Priority: r.Priority, Match: match, Action: r.Action})}
	}
	a.CacheRulesSent += uint64(len(mods))
	return MissResult{Rule: *r, CacheMods: mods, OK: true}
}

func (a *Authority) cacheMod(r flowspace.Rule) proto.FlowMod {
	return proto.FlowMod{Table: proto.TableCache, Op: proto.OpAdd, Rule: r,
		Idle: a.CacheIdleTimeout, Hard: a.CacheHardTimeout}
}

// dependencies returns deps[hit], filling it on first use.
func (a *Authority) dependencies(hit int) []int {
	if a.deps == nil {
		a.deps = make([][]int, len(a.Partition.Rules))
	}
	if a.deps[hit] == nil {
		a.deps[hit] = append([]int{}, flowspace.DependentSet(a.Partition.Rules, hit)...)
	}
	return a.deps[hit]
}

// cover is flowspace.CoverFor(Partition.Rules, hit, Partition.Region, k)
// carved out of rule hit's dependencies alone: no other rule of the
// partition can take a piece off it.
func (a *Authority) cover(hit int, k *flowspace.Key) (flowspace.Match, bool) {
	rules := a.Partition.Rules
	cover, ok := rules[hit].Match.Intersect(a.Partition.Region)
	if !ok || !cover.Matches(*k) {
		return flowspace.Match{}, false
	}
	for _, j := range a.dependencies(hit) {
		if !cover.Carve(&rules[j].Match, k) {
			return flowspace.Match{}, false
		}
	}
	return cover, true
}

func exactMatch(k flowspace.Key) flowspace.Match {
	m := flowspace.MatchAll()
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		m = m.WithExact(f, k[f])
	}
	return m
}
