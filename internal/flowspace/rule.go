package flowspace

import (
	"fmt"
	"sort"
)

// ActionKind enumerates what a rule does with a matching packet.
type ActionKind uint8

const (
	// ActDrop discards the packet.
	ActDrop ActionKind = iota
	// ActForward sends the packet toward the egress switch in Arg.
	ActForward
	// ActRedirect encapsulates the packet toward the authority switch in
	// Arg (the action carried by DIFANE partition rules).
	ActRedirect
	// ActController punts the packet to the central controller (the
	// Ethane/NOX baseline's miss action).
	ActController
	// ActCount counts the packet and continues (monitoring rules).
	ActCount
)

var actionNames = map[ActionKind]string{
	ActDrop:       "drop",
	ActForward:    "forward",
	ActRedirect:   "redirect",
	ActController: "controller",
	ActCount:      "count",
}

func (k ActionKind) String() string {
	if s, ok := actionNames[k]; ok {
		return s
	}
	return fmt.Sprintf("action(%d)", uint8(k))
}

// Action is what a rule applies to matching packets. Arg is the egress
// switch for ActForward and the authority switch for ActRedirect.
type Action struct {
	Kind ActionKind
	Arg  uint32
}

func (a Action) String() string {
	switch a.Kind {
	case ActForward, ActRedirect:
		return fmt.Sprintf("%s(%d)", a.Kind, a.Arg)
	default:
		return a.Kind.String()
	}
}

// Rule is a prioritized ternary rule. Higher Priority wins; ties are broken
// by lower ID (insertion order), matching TCAM behaviour.
type Rule struct {
	ID       uint64
	Priority int32
	Match    Match
	Action   Action
}

func (r Rule) String() string {
	return fmt.Sprintf("#%d p=%d %s -> %s", r.ID, r.Priority, r.Match, r.Action)
}

// Before reports whether r is examined before o in a TCAM holding both.
func (r Rule) Before(o Rule) bool { return r.Precedes(&o) }

// Precedes is Before by pointer, and the one definition of TCAM order, for
// the table walks here and in internal/tcam: a Rule is 200 bytes, and
// copying two per comparison was most of a walk.
func (r *Rule) Precedes(o *Rule) bool {
	if r.Priority != o.Priority {
		return r.Priority > o.Priority
	}
	return r.ID < o.ID
}

// SortRules orders rules highest-priority first (TCAM order), in place.
func SortRules(rs []Rule) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Before(rs[j]) })
}

// EvalTable returns the highest-priority rule in rs (any order) matching k,
// or false if none matches. It is the semantic reference against which all
// faster lookup structures are tested.
func EvalTable(rs []Rule, k Key) (Rule, bool) {
	best := -1
	for i := range rs {
		if rs[i].Match.Holds(&k) && (best < 0 || rs[i].Precedes(&rs[best])) {
			best = i
		}
	}
	if best < 0 {
		return Rule{}, false
	}
	return rs[best], true
}

// Shadowed reports whether rule rs[i] can never match any packet because
// higher-priority rules jointly cover it. It is exact for single-rule
// covers and for covers expressible as the subtraction chain.
func Shadowed(rs []Rule, i int) bool {
	pieces := []Match{rs[i].Match}
	for j := range rs {
		if j == i || !rs[j].Precedes(&rs[i]) {
			continue
		}
		var next []Match
		for _, p := range pieces {
			next = append(next, p.Subtract(rs[j].Match)...)
		}
		pieces = next
		if len(pieces) == 0 {
			return true
		}
	}
	return false
}

// DependentSet returns the rules in rs with higher match precedence than
// rs[i] whose matches overlap rs[i]'s match — the set that must accompany
// rs[i] into a cache for the cached table to stay semantically safe under
// the dependent-set strategy. Indices into rs are returned.
func DependentSet(rs []Rule, i int) []int {
	var deps []int
	for j := range rs {
		if j != i && rs[j].Precedes(&rs[i]) && rs[j].Match.meets(&rs[i].Match) {
			deps = append(deps, j)
		}
	}
	return deps
}

// CoverFor computes a cover cache rule for the packet k that matched rule
// rs[hit] (indices into rs, which may be in any order) within the clip
// region: a match that (a) contains k, (b) lies inside clip ∩ rs[hit], and
// (c) excludes every higher-priority overlapping rule, so caching it with
// rs[hit]'s action is semantically exact. Returns false if the packet sits
// on a sliver that the subtraction could not isolate (callers then fall
// back to an exact-match cache rule). The cover is the region carved by
// each such rule in turn, keeping only the piece that holds k.
func CoverFor(rs []Rule, hit int, clip Match, k Key) (Match, bool) {
	cover, ok := rs[hit].Match.Intersect(clip)
	if !ok || !cover.Holds(&k) {
		return Match{}, false
	}
	for j := range rs {
		if j != hit && rs[j].Precedes(&rs[hit]) && !cover.Carve(&rs[j].Match, &k) {
			return Match{}, false
		}
	}
	return cover, true
}
