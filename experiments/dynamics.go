package experiments

import (
	"fmt"
	"strings"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/metrics"
	"difane/internal/topo"
	"difane/internal/workload"
)

// --- F8: failover after authority failure --------------------------------------

// FailoverResult reports delivery around an authority failure.
type FailoverResult struct {
	// WithBackup / WithoutBackup give (delivered, lost) flow counts in the
	// 2-second window after the failure.
	WithBackupDelivered    uint64
	WithBackupLost         uint64
	WithoutBackupDelivered uint64
	WithoutBackupLost      uint64
	// ConvergenceDelay is the modeled detection + withdrawal time.
	ConvergenceDelay float64
}

// failoverTopology is a ring of POPs: killing one authority leaves the
// data plane connected.
func failoverTopology(n int) *topo.Graph {
	g := topo.NewGraph()
	for i := 0; i < n; i++ {
		g.AddLink(topo.NodeID(i), topo.NodeID((i+1)%n), 0.001)
	}
	return g
}

// FigFailover kills the primary authority mid-run. With pre-installed
// backup partition rules the loss window equals the failover delay; with a
// single authority the outage lasts until the end of the run.
func FigFailover(o Options) *FailoverResult {
	const (
		failAt      = 2.0
		horizon     = 4.0
		failoverDel = 0.2
		ringN       = 8
	)
	policy := []flowspace.Rule{{
		ID: 1, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 0},
	}}
	res := &FailoverResult{ConvergenceDelay: failoverDel}

	run := func(authorities []uint32) (delivered, lost uint64) {
		g := failoverTopology(ringN)
		n, err := core.NewNetwork(g, authorities, policy, core.NetworkConfig{
			Strategy: core.StrategyExact, // every new flow redirects: worst case
		})
		if err != nil {
			panic(err)
		}
		c := core.NewController(n)
		c.FailoverDelay = failoverDel
		primary := n.Assignment().Primary[0]
		n.Eng.At(failAt, func() {
			n.FailAuthority(primary)
			c.OnTopologyChange()
		})
		// Fresh flows every 10ms from rotating non-authority ingresses,
		// only counting the post-failure window.
		seq := uint64(0)
		for at := failAt; at < horizon; at += 0.01 {
			ingress := uint32((seq % 4) * 2) // even nodes: never an authority
			var k flowspace.Key
			k[flowspace.FIPSrc] = uint64(1000 + seq)
			n.InjectPacket(at, ingress, k, 100, 0)
			seq++
		}
		n.Run(horizon + 1)
		return n.M.Delivered, n.M.Drops.Unreachable
	}

	res.WithBackupDelivered, res.WithBackupLost = run([]uint32{1, 5})
	res.WithoutBackupDelivered, res.WithoutBackupLost = run([]uint32{1})
	return res
}

// Render prints the F8 comparison.
func (r *FailoverResult) Render() string {
	var b strings.Builder
	b.WriteString(header("F8", "authority failure: post-failure flow outcomes (2s window)"))
	var tb metrics.Table
	tb.AddRow("config", "delivered", "lost")
	tb.AddRowf("primary+backup", r.WithBackupDelivered, r.WithBackupLost)
	tb.AddRowf("single authority", r.WithoutBackupDelivered, r.WithoutBackupLost)
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "failover (detect+withdraw) delay: %s\n",
		metrics.FormatDuration(r.ConvergenceDelay))
	return b.String()
}

// --- F9: policy-change convergence ----------------------------------------------

// PolicyChangeResult reports behaviour around a policy update.
type PolicyChangeResult struct {
	// StaleServed counts packets served with the old policy's action after
	// the update was requested but before it converged.
	StaleServed uint64
	// ConvergedCorrect counts post-convergence packets with the new action.
	ConvergedCorrect uint64
	// PushDelay is the modeled distribution latency.
	PushDelay float64
	// CacheCleared is the number of cache entries invalidated by the push.
	CacheCleared int
}

// FigPolicyChange flips a permit policy to a deny policy mid-run and
// measures the stale-service window: it is bounded by the push delay
// because the controller invalidates caches when the new rules land.
func FigPolicyChange(o Options) *PolicyChangeResult {
	const (
		changeAt = 2.0
		pushDel  = 0.25
		horizon  = 5.0
	)
	g := topo.Linear(4, 0.001)
	permit := []flowspace.Rule{{
		ID: 1, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 3},
	}}
	deny := []flowspace.Rule{{
		ID: 2, Priority: 1, Match: flowspace.MatchAll(),
		Action: flowspace.Action{Kind: flowspace.ActDrop},
	}}
	n, err := core.NewNetwork(g, []uint32{1}, permit, core.NetworkConfig{
		Strategy: core.StrategyCover,
	})
	if err != nil {
		panic(err)
	}
	c := core.NewController(n)
	c.PolicyPushDelay = pushDel
	res := &PolicyChangeResult{PushDelay: pushDel}

	n.Eng.At(changeAt, func() {
		before := n.CacheEntries()
		if _, err := c.UpdatePolicy(deny); err != nil {
			panic(err)
		}
		// Record how much cached state the push will clear.
		n.Eng.At(changeAt+pushDel+0.001, func() {
			res.CacheCleared = before - n.CacheEntries()
			if res.CacheCleared < 0 {
				res.CacheCleared = 0
			}
		})
	})
	// Steady flow arrivals throughout.
	seq := uint64(0)
	for at := 0.0; at < horizon; at += 0.01 {
		var k flowspace.Key
		k[flowspace.FIPSrc] = uint64(10 + seq)
		n.InjectPacket(at, 0, k, 100, 0)
		seq++
	}
	n.Run(horizon + 1)

	// Delivered packets injected after changeAt were served stale (the new
	// policy drops everything); policy drops after convergence are correct.
	total := n.M.Delivered
	beforeCount := uint64(changeAt / 0.01) // flows injected before the change
	if total > beforeCount {
		res.StaleServed = total - beforeCount
	}
	res.ConvergedCorrect = n.M.Drops.Policy
	return res
}

// Render prints the F9 summary.
func (r *PolicyChangeResult) Render() string {
	var b strings.Builder
	b.WriteString(header("F9", "policy change convergence"))
	var tb metrics.Table
	tb.AddRow("metric", "value")
	tb.AddRowf("push delay (s)", r.PushDelay)
	tb.AddRowf("stale-served flows", r.StaleServed)
	tb.AddRowf("stale window bound (flows)", int(r.PushDelay/0.01)+1)
	tb.AddRowf("post-convergence correct drops", r.ConvergedCorrect)
	tb.AddRowf("cache entries invalidated", r.CacheCleared)
	b.WriteString(tb.String())
	return b.String()
}

// --- A1: cache strategy ablation --------------------------------------------------

// StrategyRow is one strategy's ablation sample.
type StrategyRow struct {
	Strategy   core.CacheStrategy
	MissRate   float64
	RulesSent  uint64 // cache rules generated per miss traffic
	CacheInUse int    // entries resident at end of run
}

// AblationCacheStrategyResult is the A1 table.
type AblationCacheStrategyResult struct{ Rows []StrategyRow }

// AblationCacheStrategy compares the three cache-rule schemes on a
// dependency-heavy ACL with a fixed cache size: cover-set approaches
// dependent-set's hit rate at a fraction of the entries.
func AblationCacheStrategy(o Options) *AblationCacheStrategyResult {
	spec := workload.CampusNetwork(o.Seed, o.Scale)
	flows := workload.GenerateTraffic(spec, workload.TrafficConfig{
		Flows: scaleInt(o, 20000), Rate: 5000,
		Population: scaleInt(o, 10000), ZipfAlpha: 1.2,
		PacketsMean: 4, Seed: o.Seed + 40,
	})
	const cacheSize = 256
	res := &AblationCacheStrategyResult{}
	for _, strat := range []core.CacheStrategy{core.StrategyCover, core.StrategyDependent, core.StrategyExact} {
		auths := core.PlaceAuthorities(spec.Graph, 2)
		dn, err := core.NewNetwork(spec.Graph, auths, spec.Policy, core.NetworkConfig{
			Strategy:      strat,
			CacheCapacity: cacheSize,
			Partition:     core.PartitionConfig{MaxRulesPerPartition: len(spec.Policy)/2 + 1},
		})
		if err != nil {
			panic(err)
		}
		runTrace(dn.InjectPacket, dn.Run, flows)
		total := dn.M.Delivered + dn.M.Drops.Policy
		sent := cacheRulesSent(dn)
		res.Rows = append(res.Rows, StrategyRow{
			Strategy:   strat,
			MissRate:   float64(dn.M.Redirects) / float64(total),
			RulesSent:  sent,
			CacheInUse: dn.CacheEntries(),
		})
	}
	return res
}

func cacheRulesSent(n *core.Network) uint64 {
	var total uint64
	for _, a := range n.AllAuthorities() {
		total += a.CacheRulesSent
	}
	return total
}

// Render prints the A1 table.
func (r *AblationCacheStrategyResult) Render() string {
	var b strings.Builder
	b.WriteString(header("A1", "cache strategy ablation (cache=256 entries, campus ACL)"))
	var tb metrics.Table
	tb.AddRow("strategy", "miss-rate", "cache-rules-sent", "resident-entries")
	for _, row := range r.Rows {
		tb.AddRow(row.Strategy.String(), fmt.Sprintf("%.4f", row.MissRate),
			fmt.Sprintf("%d", row.RulesSent), fmt.Sprintf("%d", row.CacheInUse))
	}
	b.WriteString(tb.String())
	return b.String()
}

// --- A2: partitioner ablation ------------------------------------------------------

// PartitionerRow compares partitioners at one k.
type PartitionerRow struct {
	Authorities  int
	TreeMax      int // decision-tree max entries per switch
	ReplicateMax int // duplicate-all entries per switch
}

// AblationPartitionerResult is the A2 table.
type AblationPartitionerResult struct {
	Network string
	Rows    []PartitionerRow
}

// AblationPartitioner compares the decision-tree partitioner against
// naive full replication on the campus policy.
func AblationPartitioner(o Options) *AblationPartitionerResult {
	spec := workload.CampusNetwork(o.Seed, o.Scale)
	res := &AblationPartitionerResult{Network: spec.Name}
	for _, k := range []int{1, 2, 4, 8, 16} {
		auths := make([]uint32, k)
		for i := range auths {
			auths[i] = uint32(i + 1)
		}
		leaf := len(spec.Policy)/(2*k) + 1
		parts := core.BuildPartitions(spec.Policy, core.PartitionConfig{MaxRulesPerPartition: leaf})
		a, err := core.Assign(parts, auths)
		if err != nil {
			panic(err)
		}
		treeMax := 0
		for _, load := range a.LoadPerAuthority() {
			if load > treeMax {
				treeMax = load
			}
		}
		res.Rows = append(res.Rows, PartitionerRow{
			Authorities:  k,
			TreeMax:      treeMax,
			ReplicateMax: len(spec.Policy),
		})
	}
	return res
}

// Render prints the A2 table.
func (r *AblationPartitionerResult) Render() string {
	var b strings.Builder
	b.WriteString(header("A2", "partitioner ablation: decision tree vs replicate-all ("+r.Network+")"))
	var tb metrics.Table
	tb.AddRow("k", "tree max/switch", "replicate-all/switch", "saving")
	for _, row := range r.Rows {
		saving := float64(row.ReplicateMax) / float64(row.TreeMax)
		tb.AddRowf(row.Authorities, row.TreeMax, row.ReplicateMax,
			fmt.Sprintf("%.1fx", saving))
	}
	b.WriteString(tb.String())
	return b.String()
}
