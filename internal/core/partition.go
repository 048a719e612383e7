// Package core implements the DIFANE system itself: the controller's
// decision-tree flow-space partitioner, authority-switch rule handling
// with wildcard-safe cache-rule generation, ingress cache management, and
// the event-driven network binding them together over the simulator.
package core

import (
	"fmt"
	"sort"

	"difane/internal/flowspace"
)

// Partition is one region of flow space with the policy rules that can
// match inside it, clipped to the region and kept in TCAM order. A
// partition is what the controller installs into one authority switch.
type Partition struct {
	// Region is the flow-space cell this partition owns.
	Region flowspace.Match
	// Rules are the policy rules overlapping Region, clipped to it.
	Rules []flowspace.Rule
}

// PartitionConfig tunes the decision-tree partitioner.
type PartitionConfig struct {
	// MaxRulesPerPartition is the leaf capacity: a region holding at most
	// this many rules stops splitting. Must be ≥ 1.
	MaxRulesPerPartition int
	// MaxPartitions optionally bounds the number of leaves (0 = unbounded).
	// When the bound is hit, remaining oversized regions become leaves.
	MaxPartitions int
}

// cutFields are the dimensions the tree may cut on: ip_src, ip_dst,
// tp_dst, eth_type — the fields enterprise policies actually structure on.
var cutFields = []flowspace.FieldID{
	flowspace.FIPSrc, flowspace.FIPDst, flowspace.FTPDst, flowspace.FEthType,
}

// DefaultMaxRulesPerPartition caps a partition at roughly what a hardware
// TCAM bank holds when no explicit leaf capacity is configured.
const DefaultMaxRulesPerPartition = 4096

func (c PartitionConfig) withDefaults() PartitionConfig {
	if c.MaxRulesPerPartition < 1 {
		c.MaxRulesPerPartition = DefaultMaxRulesPerPartition
	}
	return c
}

// BuildPartitions splits the flow space into regions whose overlapping rule
// sets fit the leaf capacity, duplicating (splitting) rules that span a
// cut — the paper's decision-tree partitioning. Rules may be in any order;
// the returned partitions carry their rules in TCAM order.
func BuildPartitions(rules []flowspace.Rule, cfg PartitionConfig) []Partition {
	cfg = cfg.withDefaults()
	sorted := append([]flowspace.Rule(nil), rules...)
	flowspace.SortRules(sorted)

	// A tree node names its rules by index into sorted, so a split copies
	// indices, not rules; only a leaf's clipped rules are built whole.
	type node struct {
		region flowspace.Match
		rules  []int32 // overlapping, TCAM order
	}
	var leaves []Partition
	all := make([]int32, len(sorted))
	for i := range all {
		all[i] = int32(i)
	}
	stack := []node{{region: flowspace.MatchAll(), rules: all}}

	emit := func(n node) {
		clipped := make([]flowspace.Rule, 0, len(n.rules))
		for _, i := range n.rules {
			r := sorted[i]
			m, ok := r.Match.Intersect(n.region)
			if !ok {
				continue
			}
			r.Match = m
			clipped = append(clipped, r)
		}
		leaves = append(leaves, Partition{Region: n.region, Rules: clipped})
	}

	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		if len(n.rules) <= cfg.MaxRulesPerPartition ||
			(cfg.MaxPartitions > 0 && len(leaves)+len(stack)+2 > cfg.MaxPartitions) {
			emit(n)
			continue
		}
		field, bit, ok := chooseCut(n.region, sorted, n.rules)
		if !ok {
			emit(n) // no cut separates anything further
			continue
		}
		zero, one := cutRegion(n.region, field, bit)
		zn := node{region: zero, rules: overlapping(sorted, n.rules, zero)}
		on := node{region: one, rules: overlapping(sorted, n.rules, one)}
		stack = append(stack, on, zn)
	}
	return leaves
}

// overlapping returns those of rules[idx...] that overlap region, as
// indices into rules.
func overlapping(rules []flowspace.Rule, idx []int32, region flowspace.Match) []int32 {
	out := make([]int32, 0, len(idx)/2+1)
	for _, i := range idx {
		if rules[i].Match.Overlaps(region) {
			out = append(out, i)
		}
	}
	return out
}

// cutRegion splits region on one wildcard bit of one field.
func cutRegion(region flowspace.Match, f flowspace.FieldID, bit uint) (zero, one flowspace.Match) {
	zero, one = region, region
	mask := uint64(1) << bit
	fd := region.Fields[f]
	fd.Mask |= mask

	z := fd
	z.Value &^= mask
	zero.Fields[f] = z

	o := fd
	o.Value |= mask
	one.Fields[f] = o
	return zero, one
}

// chooseCut greedily picks the (field, bit) whose cut best balances the two
// halves, breaking ties toward less rule duplication. Only the highest
// free bit of each candidate field is considered — cutting high bits first
// mirrors prefix structure and keeps regions expressible as single ternary
// matches.
func chooseCut(region flowspace.Match, rules []flowspace.Rule, idx []int32) (flowspace.FieldID, uint, bool) {
	bestField := flowspace.FieldID(-1)
	var bestBit uint
	bestMax, bestSum := len(idx)+1, 0
	for _, f := range cutFields {
		w := f.Width()
		fd := region.Fields[f]
		// Highest wildcard bit of this field inside the region.
		var bit int = -1
		for i := int(w) - 1; i >= 0; i-- {
			if fd.Mask&(1<<uint(i)) == 0 {
				bit = i
				break
			}
		}
		if bit < 0 {
			continue
		}
		zero, one := cutRegion(region, f, uint(bit))
		l, r := 0, 0
		for _, i := range idx {
			if rules[i].Match.Overlaps(zero) {
				l++
			}
			if rules[i].Match.Overlaps(one) {
				r++
			}
		}
		if l == len(idx) && r == len(idx) {
			continue // cut separates nothing
		}
		mx := l
		if r > mx {
			mx = r
		}
		if mx < bestMax || (mx == bestMax && l+r < bestSum) {
			bestField, bestBit, bestMax, bestSum = f, uint(bit), mx, l+r
		}
	}
	if bestField < 0 {
		return 0, 0, false
	}
	return bestField, bestBit, true
}

// TotalEntries sums the TCAM entries across partitions — the paper's
// rule-splitting overhead metric's numerator.
func TotalEntries(parts []Partition) int {
	n := 0
	for _, p := range parts {
		n += len(p.Rules)
	}
	return n
}

// Assignment maps partitions onto authority switches.
type Assignment struct {
	Partitions []Partition `json:"-"` // not sealed: ReadState rebuilds them
	// Primary[i] and Backup[i] are the authority switches serving
	// Partitions[i]. Backup equals Primary when only one authority exists.
	Primary []uint32
	Backup  []uint32
	// Replicas[i], when non-nil, lists every authority switch hosting
	// Partitions[i] (including Primary and Backup). Higher replication
	// trades TCAM for shorter detours — the stretch experiment's knob.
	Replicas [][]uint32
}

// FailoverList returns the ordered list of authority switches an ingress
// switch should try for partition i: the primary first, then the backup,
// then any further replicas. The list never contains duplicates and always
// holds at least the primary. Wire-mode ingress switches walk this list
// when the failure detector marks a host dead.
func (a Assignment) FailoverList(i int) []uint32 {
	out := []uint32{a.Primary[i]}
	add := func(id uint32) {
		for _, h := range out {
			if h == id {
				return
			}
		}
		out = append(out, id)
	}
	add(a.Backup[i])
	if a.Replicas != nil {
		for _, id := range a.Replicas[i] {
			add(id)
		}
	}
	return out
}

// PartitionOfRuleID maps a partition-table rule ID (as Running.Routes
// numbers them from idBase) back to its partition index.
func (a Assignment) PartitionOfRuleID(idBase, ruleID uint64) (int, bool) {
	if ruleID < idBase {
		return 0, false
	}
	i := int((ruleID - idBase) / 2)
	if i >= len(a.Partitions) {
		return 0, false
	}
	return i, true
}

// ReplicasFor returns all hosts of partition i (at least the primary).
func (a Assignment) ReplicasFor(i int) []uint32 {
	if a.Replicas != nil && len(a.Replicas[i]) > 0 {
		return a.Replicas[i]
	}
	if a.Backup[i] != a.Primary[i] {
		return []uint32{a.Primary[i], a.Backup[i]}
	}
	return []uint32{a.Primary[i]}
}

// Assign distributes partitions across the given authority switches,
// balancing per-switch TCAM load greedily (largest partition first onto
// the least-loaded switch). Backups are chosen as the next-least-loaded
// distinct switch.
func Assign(parts []Partition, authorities []uint32) (Assignment, error) {
	if len(authorities) == 0 {
		return Assignment{}, fmt.Errorf("core: no authority switches")
	}
	a := Assignment{
		Partitions: parts,
		Primary:    make([]uint32, len(parts)),
		Backup:     make([]uint32, len(parts)),
	}
	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		px, py := len(parts[order[x]].Rules), len(parts[order[y]].Rules)
		if px != py {
			return px > py
		}
		return order[x] < order[y]
	})
	load := make(map[uint32]int, len(authorities))
	for _, id := range authorities {
		load[id] = 0
	}
	leastLoaded := func(exclude uint32, useExclude bool) uint32 {
		best := authorities[0]
		bestLoad := -1
		for _, id := range authorities {
			if useExclude && id == exclude {
				continue
			}
			if bestLoad < 0 || load[id] < bestLoad || (load[id] == bestLoad && id < best) {
				best, bestLoad = id, load[id]
			}
		}
		return best
	}
	for _, i := range order {
		p := leastLoaded(0, false)
		a.Primary[i] = p
		load[p] += len(parts[i].Rules)
		if len(authorities) > 1 {
			b := leastLoaded(p, true)
			a.Backup[i] = b
			// Backup replicas occupy TCAM too; weigh them at half so
			// primaries dominate placement.
			load[b] += len(parts[i].Rules) / 2
		} else {
			a.Backup[i] = p
		}
	}
	return a, nil
}

// LoadPerAuthority returns the number of primary-partition TCAM entries
// each authority switch carries under the assignment.
func (a Assignment) LoadPerAuthority() map[uint32]int {
	out := make(map[uint32]int)
	for i, p := range a.Partitions {
		out[a.Primary[i]] += len(p.Rules)
	}
	return out
}

// PartitionRulePriority bands for the partition table: primary redirect
// rules sit above backup redirect rules so backups only match once the
// primaries are deleted.
const (
	PriPartitionPrimary = 100
	PriPartitionBackup  = 50
)

// AssignWithReplication distributes partitions like Assign but places each
// partition at r distinct authority switches (clamped to the authority
// count), balancing load greedily. Replicas[i][0] is the primary.
func AssignWithReplication(parts []Partition, authorities []uint32, r int) (Assignment, error) {
	a, err := Assign(parts, authorities)
	if err != nil {
		return Assignment{}, err
	}
	if r < 2 {
		r = 2
	}
	if r > len(authorities) {
		r = len(authorities)
	}
	a.Replicas = make([][]uint32, len(parts))
	load := make(map[uint32]int, len(authorities))
	for i := range parts {
		hosts := []uint32{a.Primary[i]}
		load[a.Primary[i]] += len(parts[i].Rules)
		for len(hosts) < r {
			best := uint32(0)
			bestLoad := -1
			for _, id := range authorities {
				taken := false
				for _, h := range hosts {
					if h == id {
						taken = true
						break
					}
				}
				if taken {
					continue
				}
				if bestLoad < 0 || load[id] < bestLoad || (load[id] == bestLoad && id < best) {
					best, bestLoad = id, load[id]
				}
			}
			if bestLoad < 0 {
				break
			}
			hosts = append(hosts, best)
			load[best] += len(parts[i].Rules)
		}
		a.Replicas[i] = hosts
		if len(hosts) > 1 {
			a.Backup[i] = hosts[1]
		}
	}
	return a, nil
}
