package core

import (
	"fmt"
	"sort"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/tcam"
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
// partition once its authority table has matched a redirected packet to a
// rule: decide the action and generate the ingress switch's cache rules.
type Authority struct {
	// SwitchID is the switch hosting this partition.
	SwitchID uint32
	// Partition holds the region and its clipped rules in TCAM order
	// (NewAuthority sorts a copy of rules handed over in any other): what
	// the authority table holds, and what a cover is carved out of:
	// everything a rule depends on sits above it. Per packet the table is
	// searched, not this.
	Partition Partition
	// Strategy picks the cache-rule generation scheme.
	Strategy CacheStrategy
	// RegionIndex is the partition's index in the network assignment (−1
	// when unknown): the key the cost-aware cache policy tracks per-region
	// statistics and adapted idle timeouts under.
	RegionIndex int
	// CacheIdleTimeout is applied to generated cache rules (seconds, 0 =
	// none); they carry no hard timeout. Every miss reads it afresh, so a
	// change reaches a cover already minted at its next miss, under its
	// old ID: the ingress replaces its entry rather than keep a duplicate.
	CacheIdleTimeout float64

	// Misses counts handled cache misses; CacheRulesSent counts generated
	// cache rules.
	Misses         uint64
	CacheRulesSent uint64

	nextID uint64
	// originOf maps generated cache-rule IDs back to the policy rule they
	// stand for, preserving per-policy-rule accounting.
	originOf map[uint64]uint64
	// minted maps each match generated so far, packed (Match.Pack: 64
	// bytes, a full compare), to the ID its first miss minted, which every
	// key inside it then gets: flows waiting on one cover refresh one
	// ingress cache entry, and a cover minted before costs no ID and no
	// originOf entry; its FlowMod is built at each miss. It dies with the
	// Authority, rebuilt on every partition or policy change, so it never
	// answers stale. StrategyDependent caches rules under their own IDs.
	minted map[[2]flowspace.Packed]uint64
	// deps[i] holds the indices of the higher-precedence rules overlapping
	// Partition.Rules[i] — what a cover of rule i is carved out of and what
	// the dependent strategy caches beside it. It is a property of the
	// partition, not of the packet, so it is worked out once, on the first
	// miss rule i answers (nil until then, never nil after), not per miss.
	deps [][]int
	// table indexes Partition.Rules for HandleMiss and CoverOf, built by
	// the first call of either: never by a deployment's miss path, where the
	// switch's table is the index.
	table *tcam.Table
}

// memoCap bounds minted; when full it is flushed wholesale (a flushed cover
// is minted again, under a fresh ID, by the next miss inside it, and
// tracking recency would put map bookkeeping on every miss).
const memoCap = 8192

// HandlerKey names a partition's miss handler by its host and partition
// index, which is what an authority-table hit names it by.
type HandlerKey struct {
	Host uint32
	Part int
}

// NewAuthority builds the authority logic for a partition.
func NewAuthority(switchID uint32, p Partition, strategy CacheStrategy) *Authority {
	if !sort.SliceIsSorted(p.Rules, func(i, j int) bool { return p.Rules[i].Precedes(&p.Rules[j]) }) {
		p.Rules = append([]flowspace.Rule(nil), p.Rules...)
		flowspace.SortRules(p.Rules)
	}
	return &Authority{
		SwitchID:    switchID,
		Partition:   p,
		Strategy:    strategy,
		RegionIndex: -1,
		originOf:    make(map[uint64]uint64),
		minted:      make(map[[2]flowspace.Packed]uint64),
	}
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

// HandleMiss is Answer for a caller that holds no switch: it looks k up in
// a table of its own over Partition.Rules, so it walks the same index and
// generates the same rules as a deployment's miss path.
func (a *Authority) HandleMiss(k flowspace.Key) MissResult {
	entry, ok := a.ownTable().Lookup(0, k, 0)
	if !ok {
		return MissResult{}
	}
	return a.Answer(&entry, &k, nil)
}

// CoverOf is the answer HandleMiss would give k under StrategyCover, without
// giving it: the rule of the partition that matches k and the cover a miss
// would cache, minting no ID and counting no miss. False when no rule
// matches or the subtraction isolates no cover around k (the miss path then
// caches an exact match).
func (a *Authority) CoverOf(k flowspace.Key) (flowspace.Rule, flowspace.Match, bool) {
	entry, ok := a.ownTable().Lookup(0, k, 0) // nothing reads this table's counters
	if !ok {
		return flowspace.Rule{}, flowspace.Match{}, false
	}
	hit := a.ruleIndex(&entry)
	cover, ok := a.cover(hit, &k)
	return a.Partition.Rules[hit], cover, ok
}

func (a *Authority) ownTable() *tcam.Table {
	if a.table == nil {
		a.table = tcam.New("authority", 0, tcam.EvictNone)
		for _, r := range a.Partition.Rules {
			_ = a.table.Insert(0, r, 0, 0) // unbounded: cannot fail
		}
	}
	return a.table
}

// ruleIndex returns the index in Partition.Rules of the rule an authority
// table installed entry from, or −1 when it is none of them.
func (a *Authority) ruleIndex(entry *flowspace.Rule) int {
	rules := a.Partition.Rules
	want := flowspace.Rule{ID: AuthorityEntryRuleID(entry.ID), Priority: entry.Priority}
	hit := sort.Search(len(rules), func(i int) bool { return !rules[i].Precedes(&want) })
	if hit == len(rules) || want.Precedes(&rules[hit]) {
		return -1
	}
	return hit
}

// Answer processes a redirected packet k that the authority table matched
// to entry, one of Partition.Rules under the ID it was installed by (any
// other is a hole): decide the action, and append the ingress cache rules
// the strategy generates to mods, a slice the caller owns, returning it as
// CacheMods (mods itself when there are none). A cover minted before keeps
// its ID.
func (a *Authority) Answer(entry *flowspace.Rule, k *flowspace.Key, mods []proto.FlowMod) MissResult {
	a.Misses++
	rules := a.Partition.Rules
	hit := a.ruleIndex(entry)
	if hit < 0 {
		return MissResult{CacheMods: mods}
	}
	r, n := &rules[hit], len(mods)
	if a.Strategy == StrategyDependent {
		// The matched rule and everything above it that overlaps, verbatim
		// (already clipped to the partition).
		mods = append(mods, a.cacheMod(r, r.ID, &r.Match))
		for _, j := range a.dependencies(hit) {
			mods = append(mods, a.cacheMod(&rules[j], rules[j].ID, &rules[j].Match))
		}
	} else {
		match, ok := flowspace.Match{}, false
		if a.Strategy == StrategyCover {
			match, ok = a.cover(hit, k)
		}
		if !ok { // StrategyExact, or a packet outside the region
			match = exactMatch(*k)
		}
		key := match.Pack()
		id, ok := a.minted[key]
		if !ok {
			if len(a.minted) >= memoCap {
				clear(a.minted)
			}
			id = a.allocID(r.ID)
			a.minted[key] = id
		}
		mods = append(mods, a.cacheMod(r, id, &match))
	}
	a.CacheRulesSent += uint64(len(mods) - n)
	return MissResult{Rule: *r, CacheMods: mods, OK: true}
}

// cacheMod is the FlowMod caching r as rule id over match.
func (a *Authority) cacheMod(r *flowspace.Rule, id uint64, match *flowspace.Match) proto.FlowMod {
	m := proto.FlowMod{Table: proto.TableCache, Op: proto.OpAdd, Rule: *r, Idle: a.CacheIdleTimeout}
	m.Rule.ID, m.Rule.Match = id, *match
	return m
}

// dependencies returns deps[hit], filling it on first use: the rules are in
// TCAM order, so everything rule hit can depend on is in the slice up to it.
func (a *Authority) dependencies(hit int) []int {
	if a.deps == nil {
		a.deps = make([][]int, len(a.Partition.Rules))
	}
	if a.deps[hit] == nil {
		a.deps[hit] = append([]int{}, flowspace.DependentSet(a.Partition.Rules[:hit+1], hit)...)
	}
	return a.deps[hit]
}

// cover is flowspace.CoverFor(Partition.Rules, hit, Partition.Region, k)
// carved out of rule hit's dependencies alone: no other rule of the
// partition can take a piece off it.
func (a *Authority) cover(hit int, k *flowspace.Key) (flowspace.Match, bool) {
	rules := a.Partition.Rules
	cover, ok := rules[hit].Match.Intersect(a.Partition.Region)
	if !ok || !cover.Holds(k) {
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
