package core

import (
	"math/rand"
	"testing"

	"difane/internal/flowspace"
)

// randPolicy builds an ACL-shaped policy: prefix-pair rules over a default.
func randPolicy(rng *rand.Rand, n int) []flowspace.Rule {
	rules := make([]flowspace.Rule, 0, n)
	for i := 0; i < n-1; i++ {
		m := flowspace.MatchAll().
			WithPrefix(flowspace.FIPSrc, rng.Uint64(), uint(8+rng.Intn(17))).
			WithPrefix(flowspace.FIPDst, rng.Uint64(), uint(8+rng.Intn(17)))
		kind := flowspace.ActForward
		if rng.Intn(4) == 0 {
			kind = flowspace.ActDrop
		}
		rules = append(rules, flowspace.Rule{
			ID:       uint64(i + 1),
			Priority: int32(n - i),
			Match:    m,
			Action:   flowspace.Action{Kind: kind, Arg: uint32(rng.Intn(8))},
		})
	}
	rules = append(rules, flowspace.Rule{
		ID: uint64(n), Priority: 0, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActDrop},
	})
	return rules
}

func randKey(rng *rand.Rand) flowspace.Key {
	var k flowspace.Key
	k[flowspace.FIPSrc] = uint64(rng.Uint32())
	k[flowspace.FIPDst] = uint64(rng.Uint32())
	k[flowspace.FTPDst] = uint64(rng.Intn(65536))
	return k
}

func TestPartitionsCoverFlowSpaceDisjointly(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	rules := randPolicy(rng, 200)
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 40})
	if len(parts) < 2 {
		t.Fatalf("expected multiple partitions, got %d", len(parts))
	}
	// Disjoint regions.
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			if parts[i].Region.Overlaps(parts[j].Region) {
				t.Fatalf("partitions %d and %d overlap", i, j)
			}
		}
	}
	// Cover: every random key lands in exactly one partition.
	for i := 0; i < 3000; i++ {
		k := randKey(rng)
		count := 0
		for _, p := range parts {
			if p.Region.Matches(k) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("key %v lies in %d partitions", k, count)
		}
	}
}

func TestPartitionSemanticsPreserved(t *testing.T) {
	// The heart of DIFANE correctness: evaluating a packet against its
	// partition's clipped rules must give the same answer as the global
	// policy.
	rng := rand.New(rand.NewSource(67))
	rules := randPolicy(rng, 150)
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 25})
	for i := 0; i < 3000; i++ {
		k := randKey(rng)
		want, wantOK := flowspace.EvalTable(rules, k)
		var got flowspace.Rule
		gotOK := false
		for _, p := range parts {
			if !p.Region.Matches(k) {
				continue
			}
			got, gotOK = flowspace.EvalTable(p.Rules, k)
			break
		}
		if wantOK != gotOK || (gotOK && got.ID != want.ID) {
			t.Fatalf("partition semantics differ for %v: got %v/%v want %v/%v",
				k, got, gotOK, want, wantOK)
		}
	}
}

func TestPartitionLeafCapacityRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rules := randPolicy(rng, 300)
	cap := 50
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: cap})
	over := 0
	for _, p := range parts {
		if len(p.Rules) > cap {
			over++
		}
	}
	// Rules wildcarded on every cut field (the default rule) appear in all
	// partitions and can keep a leaf slightly above capacity only when no
	// cut separates anything; that must be rare.
	if over > len(parts)/4 {
		t.Fatalf("%d of %d partitions exceed capacity", over, len(parts))
	}
}

func TestPartitionRulesClippedToRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	rules := randPolicy(rng, 100)
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 20})
	for _, p := range parts {
		for _, r := range p.Rules {
			if !p.Region.Contains(r.Match) {
				t.Fatalf("rule %v escapes region %s", r, p.Region)
			}
		}
	}
}

func TestPartitionSingleLeafWhenPolicyFits(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	rules := randPolicy(rng, 10)
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 100})
	if len(parts) != 1 {
		t.Fatalf("policy under capacity must yield one partition, got %d", len(parts))
	}
	if !parts[0].Region.IsAll() {
		t.Fatal("single partition must cover all of flow space")
	}
	if len(parts[0].Rules) != 10 {
		t.Fatalf("partition must carry all rules, got %d", len(parts[0].Rules))
	}
}

func TestMaxPartitionsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	rules := randPolicy(rng, 500)
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 5, MaxPartitions: 16})
	if len(parts) > 16 {
		t.Fatalf("MaxPartitions violated: %d", len(parts))
	}
}

func TestSplitOverheadIsModest(t *testing.T) {
	// Splitting duplicates spanning rules; for prefix-structured policies
	// the blowup must stay small (the paper reports small overheads).
	rng := rand.New(rand.NewSource(89))
	rules := randPolicy(rng, 400)
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 60})
	total := TotalEntries(parts)
	if total < len(rules) {
		t.Fatalf("total entries %d below original %d", total, len(rules))
	}
	if float64(total) > 3.0*float64(len(rules)) {
		t.Fatalf("splitting overhead too large: %d entries from %d rules", total, len(rules))
	}
}

func TestAssignBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	rules := randPolicy(rng, 400)
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 30})
	auths := []uint32{10, 20, 30, 40}
	a, err := Assign(parts, auths)
	if err != nil {
		t.Fatal(err)
	}
	load := a.LoadPerAuthority()
	min, max := 1<<30, 0
	for _, id := range auths {
		l := load[id]
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min == 0 {
		t.Fatalf("an authority got nothing: %v", load)
	}
	if float64(max) > 2.5*float64(min) {
		t.Fatalf("imbalanced assignment: %v", load)
	}
	// Backups must differ from primaries when possible.
	for i := range a.Partitions {
		if a.Backup[i] == a.Primary[i] {
			t.Fatalf("partition %d backup equals primary with 4 authorities", i)
		}
	}
}

func TestAssignSingleAuthority(t *testing.T) {
	parts := []Partition{{Region: flowspace.MatchAll()}}
	a, err := Assign(parts, []uint32{7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Primary[0] != 7 || a.Backup[0] != 7 {
		t.Fatalf("assignment = %+v", a)
	}
	if _, err := Assign(parts, nil); err == nil {
		t.Fatal("no authorities must error")
	}
}

func TestPartitionRulesGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	rules := randPolicy(rng, 100)
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 20})
	a, err := Assign(parts, []uint32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	prules := Running{Assignment: a}.Routes(0, nil, func(uint32) bool { return true })
	// Every key must match exactly one primary partition rule, whose
	// redirect target is that partition's primary authority.
	for i := 0; i < 1000; i++ {
		k := randKey(rng)
		hit, ok := flowspace.EvalTable(prules, k)
		if !ok {
			t.Fatalf("key %v matches no partition rule", k)
		}
		if hit.Action.Kind != flowspace.ActRedirect {
			t.Fatalf("partition rule action = %v", hit.Action)
		}
		if hit.Priority != PriPartitionPrimary {
			t.Fatalf("highest match must be a primary rule, got priority %d", hit.Priority)
		}
	}
	// Backup rules exist below primaries.
	backups := 0
	for _, r := range prules {
		if r.Priority == PriPartitionBackup {
			backups++
		}
	}
	if backups == 0 {
		t.Fatal("two authorities must produce backup partition rules")
	}
}

func TestChooseCutSeparates(t *testing.T) {
	// Two disjoint /1 prefixes must be separable with a single cut.
	rules := []flowspace.Rule{
		{ID: 1, Priority: 1, Match: flowspace.MatchAll().WithPrefix(flowspace.FIPSrc, 0, 1)},
		{ID: 2, Priority: 1, Match: flowspace.MatchAll().WithPrefix(flowspace.FIPSrc, 1<<31, 1)},
	}
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 1})
	if len(parts) != 2 {
		t.Fatalf("expected 2 partitions, got %d", len(parts))
	}
	for _, p := range parts {
		if len(p.Rules) != 1 {
			t.Fatalf("each partition must hold 1 rule, got %d", len(p.Rules))
		}
	}
}

func TestUnsplittableRulesBecomeOneLeaf(t *testing.T) {
	// Identical full-wildcard rules cannot be separated; the partitioner
	// must terminate with a single leaf rather than loop.
	rules := []flowspace.Rule{
		{ID: 1, Priority: 2, Match: flowspace.MatchAll()},
		{ID: 2, Priority: 1, Match: flowspace.MatchAll()},
	}
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 1})
	if len(parts) != 1 {
		t.Fatalf("expected 1 partition, got %d", len(parts))
	}
	if len(parts[0].Rules) != 2 {
		t.Fatalf("leaf must keep both rules")
	}
}

func TestFailoverListOrderAndDedup(t *testing.T) {
	rules := []flowspace.Rule{
		{ID: 1, Priority: 1, Match: flowspace.MatchAll()},
	}
	parts := BuildPartitions(rules, PartitionConfig{})
	a, err := Assign(parts, []uint32{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Partitions {
		list := a.FailoverList(i)
		if len(list) == 0 || list[0] != a.Primary[i] {
			t.Fatalf("partition %d: failover list %v must lead with primary %d",
				i, list, a.Primary[i])
		}
		seen := map[uint32]bool{}
		for _, h := range list {
			if seen[h] {
				t.Fatalf("partition %d: duplicate host %d in %v", i, h, list)
			}
			seen[h] = true
		}
		if !seen[a.Backup[i]] {
			t.Fatalf("partition %d: backup %d missing from %v", i, a.Backup[i], list)
		}
	}
}

func TestFailoverListSingleAuthority(t *testing.T) {
	// With one authority, primary == backup; the list must collapse to one
	// entry instead of repeating it.
	rules := []flowspace.Rule{{ID: 1, Priority: 1, Match: flowspace.MatchAll()}}
	parts := BuildPartitions(rules, PartitionConfig{})
	a, err := Assign(parts, []uint32{7})
	if err != nil {
		t.Fatal(err)
	}
	if list := a.FailoverList(0); len(list) != 1 || list[0] != 7 {
		t.Fatalf("failover list = %v, want [7]", list)
	}
}

func TestPartitionOfRuleID(t *testing.T) {
	rules := []flowspace.Rule{
		{ID: 1, Priority: 1, Match: flowspace.MatchAll().WithPrefix(flowspace.FIPSrc, 0, 1)},
		{ID: 2, Priority: 1, Match: flowspace.MatchAll().WithPrefix(flowspace.FIPSrc, 1<<31, 1)},
	}
	parts := BuildPartitions(rules, PartitionConfig{MaxRulesPerPartition: 1})
	a, err := Assign(parts, []uint32{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	const base = uint64(1) << 50
	for i := range a.Partitions {
		// Both the primary (base+2i) and backup (base+2i+1) rule IDs map
		// back to partition i.
		for _, id := range []uint64{base + uint64(2*i), base + uint64(2*i) + 1} {
			got, ok := a.PartitionOfRuleID(base, id)
			if !ok || got != i {
				t.Fatalf("PartitionOfRuleID(%d) = %d,%v want %d", id, got, ok, i)
			}
		}
	}
	if _, ok := a.PartitionOfRuleID(base, 42); ok {
		t.Fatal("sub-base rule ID must not resolve")
	}
	if _, ok := a.PartitionOfRuleID(base, base+uint64(2*len(a.Partitions))); ok {
		t.Fatal("out-of-range rule ID must not resolve")
	}
}
