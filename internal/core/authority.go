package core

import (
	"fmt"

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
// (1<<50).
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
	// Partition holds the region and its clipped rules in TCAM order.
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
	// cache rule has not landed yet redirects every packet here, and cover
	// synthesis (CoverFor's rule subtraction) is by far the costliest step
	// on the miss path — recomputing it per packet of the same flow melts
	// the authority under a redirect storm. Memoized results also pin the
	// generated rule ID, so repeat misses refresh the same ingress cache
	// entry instead of installing a duplicate under a fresh ID. The memo
	// dies with the Authority, which is rebuilt on every partition or
	// policy change, so it can never serve a stale partition's answer.
	memo map[flowspace.Key]MissResult
}

// memoCap bounds the per-authority miss memo; when full it is flushed
// wholesale (repopulating costs one CoverFor per live flow, and tracking
// recency would put map bookkeeping on every memoized hit).
const memoCap = 8192

// NewAuthority builds the authority logic for a partition.
func NewAuthority(switchID uint32, p Partition, strategy CacheStrategy) *Authority {
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
	a.nextID++
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
	hitRule, ok := flowspace.EvalTable(rules, k)
	if !ok {
		return MissResult{}
	}
	hit := -1
	for i := range rules {
		if rules[i].ID == hitRule.ID {
			hit = i
			break
		}
	}

	var mods []proto.FlowMod
	addMod := func(r flowspace.Rule) {
		mods = append(mods, proto.FlowMod{
			Table: proto.TableCache,
			Op:    proto.OpAdd,
			Rule:  r,
			Idle:  a.CacheIdleTimeout,
			Hard:  a.CacheHardTimeout,
		})
	}

	switch a.Strategy {
	case StrategyCover:
		cover, coverOK := flowspace.CoverFor(rules, hit, a.Partition.Region, k)
		if coverOK {
			addMod(flowspace.Rule{
				ID:       a.allocID(hitRule.ID),
				Priority: hitRule.Priority,
				Match:    cover,
				Action:   hitRule.Action,
			})
			break
		}
		fallthrough // sliver the subtraction couldn't isolate: exact rule
	case StrategyExact:
		addMod(flowspace.Rule{
			ID:       a.allocID(hitRule.ID),
			Priority: hitRule.Priority,
			Match:    exactMatch(k),
			Action:   hitRule.Action,
		})
	case StrategyDependent:
		// The matched rule plus everything above it that overlaps — cached
		// verbatim (already clipped to the partition), so the ingress cache
		// reproduces the partition's semantics for this region.
		addMod(rules[hit])
		for _, j := range flowspace.DependentSet(rules, hit) {
			addMod(rules[j])
		}
	}
	a.CacheRulesSent += uint64(len(mods))
	return MissResult{Rule: hitRule, CacheMods: mods, OK: true}
}

func exactMatch(k flowspace.Key) flowspace.Match {
	m := flowspace.MatchAll()
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		m = m.WithExact(f, k[f])
	}
	return m
}
