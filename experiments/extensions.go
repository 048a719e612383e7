package experiments

import (
	"fmt"
	"strings"

	"difane/internal/baseline"
	"difane/internal/core"
	"difane/internal/metrics"
	"difane/internal/proto"
	"difane/internal/subscriber"
	"difane/internal/workload"
)

// --- F10: cache-timeout sensitivity --------------------------------------------

// TimeoutPoint is one idle-timeout sample.
type TimeoutPoint struct {
	IdleTimeout float64
	MissRate    float64
	// ResidentEntries is the cache footprint at the end of the run.
	ResidentEntries int
}

// TimeoutResult is the F10 sweep.
type TimeoutResult struct{ Points []TimeoutPoint }

// FigCacheTimeout sweeps the idle timeout on generated cache rules: short
// timeouts keep switch tables small but re-redirect recurring traffic;
// long timeouts pin state. The paper leaves the timeout as the knob
// trading rule-table occupancy against miss rate — this measures that
// trade on a Zipf trace.
func FigCacheTimeout(o Options) *TimeoutResult {
	spec := workload.CampusNetwork(o.Seed, o.Scale)
	flows := workload.GenerateTraffic(spec, workload.TrafficConfig{
		Flows: scaleInt(o, 20000), Rate: 500, // long-lived run: timeouts matter
		Population: scaleInt(o, 5000), ZipfAlpha: 1.2,
		PacketsMean: 3, Seed: o.Seed + 50,
	})
	timeouts := []float64{0.5, 2, 10, 60, 0 /* never */}
	res := &TimeoutResult{}
	for _, idle := range timeouts {
		auths := core.PlaceAuthorities(spec.Graph, 2)
		dn, err := core.NewNetwork(spec.Graph, auths, spec.Policy, core.NetworkConfig{
			Strategy:  core.StrategyCover,
			CacheIdle: idle,
			Partition: core.PartitionConfig{MaxRulesPerPartition: len(spec.Policy)/2 + 1},
		})
		if err != nil {
			panic(err)
		}
		runTrace(dn.InjectPacket, dn.Run, flows)
		total := dn.M.Delivered + dn.M.Drops.Policy
		if total == 0 {
			continue
		}
		res.Points = append(res.Points, TimeoutPoint{
			IdleTimeout:     idle,
			MissRate:        float64(dn.M.Redirects) / float64(total),
			ResidentEntries: dn.CacheEntries(),
		})
	}
	return res
}

// Render prints the F10 table.
func (r *TimeoutResult) Render() string {
	var b strings.Builder
	b.WriteString(header("F10", "cache idle-timeout sensitivity (Zipf trace, campus)"))
	var tb metrics.Table
	tb.AddRow("idle-timeout", "miss-rate", "resident-entries")
	for _, p := range r.Points {
		label := metrics.FormatDuration(p.IdleTimeout)
		if p.IdleTimeout == 0 {
			label = "never"
		}
		tb.AddRow(label, fmt.Sprintf("%.4f", p.MissRate),
			fmt.Sprintf("%d", p.ResidentEntries))
	}
	b.WriteString(tb.String())
	return b.String()
}

// --- F11: control-plane load -----------------------------------------------------

// ControlLoadResult compares controller message load.
type ControlLoadResult struct {
	Flows uint64
	// DIFANEProactive counts the one-time rule installs the DIFANE
	// controller pushes (partition + authority rules, all switches).
	DIFANEProactive int
	// DIFANERuntime counts runtime controller messages (zero by design:
	// cache installs flow authority→ingress, not through the controller).
	DIFANERuntime uint64
	// NOXRuntime counts per-flow controller interactions.
	NOXRuntime uint64
}

// FigControlLoad counts what the central controller must handle per
// workload: the paper's architectural claim is that DIFANE reduces the
// controller to proactive rule distribution, while reactive designs pay
// one controller transaction per new flow, forever.
func FigControlLoad(o Options) *ControlLoadResult {
	spec := workload.VPNNetwork(o.Seed, o.Scale)
	flows := workload.UniformTraffic(spec, workload.TrafficConfig{
		Flows: scaleInt(o, 50000), Rate: 10000, Seed: o.Seed + 60,
	})
	res := &ControlLoadResult{Flows: uint64(len(flows))}

	auths := core.PlaceAuthorities(spec.Graph, 2)
	dn, err := core.NewNetwork(spec.Graph, auths, spec.Policy, core.NetworkConfig{
		Strategy: core.StrategyCover,
	})
	if err != nil {
		panic(err)
	}
	// Proactive install cost: every rule resident in partition and
	// authority tables was one controller flow-mod.
	for _, sw := range dn.Switches {
		res.DIFANEProactive += sw.Table(proto.TablePartition).Len()
		res.DIFANEProactive += sw.Table(proto.TableAuthority).Len()
	}
	runTrace(dn.InjectPacket, dn.Run, flows)
	res.DIFANERuntime = 0 // cache installs are authority→ingress, data-plane side

	bn, err := baseline.NewNetwork(spec.Graph, spec.Policy, baseline.Config{
		ControllerNode: uint32(spec.Graph.Nodes()[0]),
	})
	if err != nil {
		panic(err)
	}
	runTrace(bn.InjectPacket, bn.Run, flows)
	res.NOXRuntime = bn.ControllerSetups
	return res
}

// Render prints the F11 comparison.
func (r *ControlLoadResult) Render() string {
	var b strings.Builder
	b.WriteString(header("F11", "central-controller load per workload"))
	var tb metrics.Table
	tb.AddRow("system", "proactive installs", "runtime msgs", "msgs/flow")
	tb.AddRowf("difane", r.DIFANEProactive, r.DIFANERuntime,
		fmt.Sprintf("%.4f", float64(r.DIFANERuntime)/float64(r.Flows)))
	tb.AddRowf("nox-like", 0, r.NOXRuntime,
		fmt.Sprintf("%.4f", float64(r.NOXRuntime)/float64(r.Flows)))
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "(%d new flows; DIFANE's proactive cost amortizes over all of them)\n", r.Flows)
	return b.String()
}

// --- F12: link-load concentration near authority switches ---------------------------

// LinkLoadPoint is one k sample.
type LinkLoadPoint struct {
	Authorities int
	// Concentration is max directed-link load over mean loaded-link load.
	Concentration float64
	// MaxLoad is packets on the hottest link.
	MaxLoad uint64
	// DetourShare is the fraction of link traversals attributable to
	// redirected packets (total vs a no-detour baseline).
	DetourShare float64
}

// LinkLoadResult is the F12 sweep.
type LinkLoadResult struct{ Points []LinkLoadPoint }

// FigLinkLoad measures how redirect detours concentrate traffic on the
// links around authority switches, and how adding (fully replicated)
// authorities spreads it — the flip side of the stretch experiment.
func FigLinkLoad(o Options) *LinkLoadResult {
	spec := workload.CampusNetwork(o.Seed, o.Scale)
	flows := workload.UniformTraffic(spec, workload.TrafficConfig{
		Flows: scaleInt(o, 10000), Rate: 5000, Seed: o.Seed + 90,
	})
	res := &LinkLoadResult{}
	baselineTotal := uint64(0)
	for _, k := range []int{1, 2, 4, 8} {
		auths := core.PlaceAuthorities(spec.Graph, k)
		dn, err := core.NewNetwork(spec.Graph, auths, spec.Policy, core.NetworkConfig{
			Strategy:    core.StrategyCover,
			Replication: k,
			HopByHop:    true,
			Partition:   core.PartitionConfig{MaxRulesPerPartition: len(spec.Policy)/k + 1},
		})
		if err != nil {
			panic(err)
		}
		runTrace(dn.InjectPacket, dn.Run, flows)
		total := dn.LinkLoads.Total()
		if baselineTotal == 0 {
			// Approximate the no-detour traversal count from the same run:
			// delivered packets × direct path lengths is unavailable
			// without rerunning, so use k=1's direct-delivery fraction as
			// the base and report shares relative to it.
			baselineTotal = total
		}
		res.Points = append(res.Points, LinkLoadPoint{
			Authorities:   k,
			Concentration: dn.LinkLoads.Concentration(),
			MaxLoad:       dn.LinkLoads.Max(),
			DetourShare:   float64(total) / float64(baselineTotal),
		})
	}
	return res
}

// Render prints the F12 table.
func (r *LinkLoadResult) Render() string {
	var b strings.Builder
	b.WriteString(header("F12", "link-load concentration vs # authorities (hop-by-hop, campus)"))
	var tb metrics.Table
	tb.AddRow("k", "max-link-load", "concentration", "traversals-vs-k1")
	for _, p := range r.Points {
		tb.AddRowf(p.Authorities, p.MaxLoad,
			fmt.Sprintf("%.2f", p.Concentration), fmt.Sprintf("%.3f", p.DetourShare))
	}
	b.WriteString(tb.String())
	return b.String()
}

// --- A4: load-aware rebalancing -----------------------------------------------------

// RebalanceResult compares setup throughput before and after the
// controller's load-aware partition rebalancing.
type RebalanceResult struct {
	// BeforeSetups/AfterSetups are completed setups in equal-length
	// windows before and after the rebalance.
	BeforeSetups uint64
	AfterSetups  uint64
	// LoadBefore/LoadAfter are per-authority miss shares (max fraction on
	// one switch) in each window.
	LoadBefore float64
	LoadAfter  float64
}

// AblationRebalance reproduces the load-concentration pathology the F3
// scaling experiment exposes at k=2 — nearest-replica redirection can
// send every ingress's misses to the same replica — and shows the
// controller's measured-load rebalance restoring parallelism by pinning
// partitions to balanced replicas.
func AblationRebalance(o Options) *RebalanceResult {
	perAuthority := 4000.0
	window := 1.0
	if o.Scale >= workload.ScaleBench {
		perAuthority = 50000
	}
	offered := 2 * perAuthority
	spec := workload.VPNNetwork(o.Seed, o.Scale)
	auths := core.PlaceAuthorities(spec.Graph, 2)
	dn, err := core.NewNetwork(spec.Graph, auths, spec.Policy, core.NetworkConfig{
		Strategy:       core.StrategyExact,
		AuthorityRate:  perAuthority,
		AuthorityQueue: 4096,
		Partition:      core.PartitionConfig{MaxRulesPerPartition: len(spec.Policy)/8 + 1},
	})
	if err != nil {
		panic(err)
	}
	c := core.NewController(dn)

	inject := func(seed int64, start float64) {
		flows := workload.UniformTraffic(spec, workload.TrafficConfig{
			Flows: int(offered * window), Rate: offered, Seed: seed,
		})
		for _, f := range flows {
			dn.InjectPacket(start+f.Start, f.Ingress, f.Key, f.Size, 0)
		}
	}

	res := &RebalanceResult{}
	maxShare := func(base map[uint32]uint64, cur map[uint32]uint64) float64 {
		var total, max uint64
		for id, v := range cur {
			d := v - base[id]
			total += d
			if d > max {
				max = d
			}
		}
		if total == 0 {
			return 0
		}
		return float64(max) / float64(total)
	}

	// authorityHits reads each switch's cumulative count of the redirects
	// its authority table answered.
	authorityHits := func() map[uint32]uint64 {
		out := make(map[uint32]uint64, len(dn.Switches))
		for id, sw := range dn.Switches {
			out[id] = sw.Table(proto.TableAuthority).Hits.Load()
		}
		return out
	}

	inject(o.Seed+80, 0)
	dn.Run(window + 0.5)
	res.BeforeSetups = dn.M.SetupsCompleted
	load1 := authorityHits()
	res.LoadBefore = maxShare(map[uint32]uint64{}, load1)

	c.RebalanceByLoad()

	inject(o.Seed+81, window+1)
	dn.Run(2*window + 2)
	res.AfterSetups = dn.M.SetupsCompleted - res.BeforeSetups
	res.LoadAfter = maxShare(load1, authorityHits())
	return res
}

// Render prints the A4 comparison.
func (r *RebalanceResult) Render() string {
	var b strings.Builder
	b.WriteString(header("A4", "load-aware partition rebalancing (k=2, offered 2x one authority)"))
	var tb metrics.Table
	tb.AddRow("phase", "setups", "max authority share")
	tb.AddRowf("before rebalance", r.BeforeSetups, fmt.Sprintf("%.2f", r.LoadBefore))
	tb.AddRowf("after rebalance", r.AfterSetups, fmt.Sprintf("%.2f", r.LoadAfter))
	b.WriteString(tb.String())
	return b.String()
}

// --- A3: eviction-policy ablation ---------------------------------------------------

// EvictionRow is one eviction policy's sample.
type EvictionRow struct {
	Policy    core.EvictionChoice
	MissRate  float64
	Evictions uint64
}

// AblationEvictionResult is the A3 table.
type AblationEvictionResult struct {
	CacheSize int
	Rows      []EvictionRow
}

// AblationEviction compares LRU, LFU, and cost-aware victim selection for
// undersized ingress caches on a Zipf trace. LRU tracks recency (good
// under drifting popularity); LFU protects heavy hitters; the cost-aware
// scorer prices each entry's predicted miss cost from observed redirect
// latency and region hit rates (F6b sweeps it against a TCAM budget).
func AblationEviction(o Options) *AblationEvictionResult {
	spec := workload.CampusNetwork(o.Seed, o.Scale)
	flows := workload.GenerateTraffic(spec, workload.TrafficConfig{
		Flows: scaleInt(o, 20000), Rate: 5000,
		Population: scaleInt(o, 20000), ZipfAlpha: 1.1, // mild skew stresses eviction
		PacketsMean: 4, Seed: o.Seed + 70,
	})
	cacheSize := 64
	if o.Scale < workload.ScaleBench {
		cacheSize = 4 // small enough to force evictions on the short trace
	}
	res := &AblationEvictionResult{CacheSize: cacheSize}
	for _, pol := range []core.EvictionChoice{core.EvictDefaultLRU, core.EvictLFU, core.EvictCostAware} {
		auths := core.PlaceAuthorities(spec.Graph, 2)
		dn, err := core.NewNetwork(spec.Graph, auths, spec.Policy, core.NetworkConfig{
			Strategy:      core.StrategyExact, // per-flow entries stress the cache
			CacheCapacity: cacheSize,
			CacheEviction: pol,
			Partition:     core.PartitionConfig{MaxRulesPerPartition: len(spec.Policy)/2 + 1},
		})
		if err != nil {
			panic(err)
		}
		runTrace(dn.InjectPacket, dn.Run, flows)
		total := dn.M.Delivered + dn.M.Drops.Policy
		var evictions uint64
		for _, sw := range dn.Switches {
			evictions += sw.Table(proto.TableCache).Evictions.Load()
		}
		res.Rows = append(res.Rows, EvictionRow{
			Policy:    pol,
			MissRate:  float64(dn.M.Redirects) / float64(total),
			Evictions: evictions,
		})
	}
	return res
}

// --- F6b: miss rate vs TCAM budget under eviction policies ----------------------

// CacheBudgetPoint is one (policy, budget) sample.
type CacheBudgetPoint struct {
	Policy    core.EvictionChoice
	Budget    int
	MissRate  float64
	Evictions uint64
}

// CacheBudgetResult is the F6b sweep.
type CacheBudgetResult struct {
	Points  []CacheBudgetPoint
	Packets uint64
}

// FigCacheBudget is the adaptive-caching ablation: the same deterministic
// flash-crowd → scan → flash-crowd subscriber workload replayed under hard
// per-switch TCAM budgets (cache capacity is whatever the authority and
// partition tables leave over), once per eviction policy. LRU lets the
// scan phase walk the flash crowd out of the cache; the cost-aware scorer
// prices each entry's predicted miss cost — and adapts timeouts and
// aggregates near-microflow entries into covers — so at equal budget its
// miss rate should sit at or below LRU's across the sweep.
func FigCacheBudget(o Options) *CacheBudgetResult {
	spec := workload.CampusNetwork(o.Seed, o.Scale)
	budgets := []int{64, 128, 256, 512}
	phaseUnit := 2.0
	if o.Scale < workload.ScaleBench {
		budgets = []int{16, 32}
		phaseUnit = 1.0
	}
	res := &CacheBudgetResult{}
	for _, budget := range budgets {
		for _, pol := range []core.EvictionChoice{core.EvictDefaultLRU, core.EvictLFU, core.EvictCostAware} {
			// A fresh engine per cell with the same seed: every cell replays
			// byte-identical traffic, so the policies are directly comparable.
			eng := subscriber.NewEngine(spec, subscriber.Config{
				Subscribers: scaleInt(o, 20000),
				ArrivalRate: 400, MeanSessionLife: 1, PacketRate: 4,
				Seed: o.Seed + 90,
			}, []subscriber.Phase{
				subscriber.Steady(phaseUnit),
				subscriber.FlashCrowd(2*phaseUnit, 4, 16),
				subscriber.Scan(phaseUnit, 3),
				subscriber.FlashCrowd(phaseUnit, 4, 16),
			})
			auths := core.PlaceAuthorities(spec.Graph, 2)
			dn, err := core.NewNetwork(spec.Graph, auths, spec.Policy, core.NetworkConfig{
				Strategy:      core.StrategyExact, // per-flow entries stress the budget
				CacheEviction: pol,
				TCAMBudget:    budget,
				Partition:     core.PartitionConfig{MaxRulesPerPartition: len(spec.Policy)/2 + 1},
			})
			if err != nil {
				panic(err)
			}
			for !eng.Done() {
				tick := eng.Advance(0.05)
				// Batch aliases the engine's buffer, but InjectBatch copies
				// each packet into its event closure synchronously, so no
				// defensive copy is needed before the next Advance.
				dn.InjectBatch(tick.Batch)
				dn.Run(eng.Now())
			}
			dn.Run(eng.Now() + 5)
			total := dn.M.Delivered + dn.M.Drops.Policy
			if total == 0 {
				continue
			}
			res.Packets = total
			var evictions uint64
			for _, sw := range dn.Switches {
				evictions += sw.Table(proto.TableCache).Evictions.Load()
			}
			res.Points = append(res.Points, CacheBudgetPoint{
				Policy:    pol,
				Budget:    budget,
				MissRate:  float64(dn.M.Redirects) / float64(total),
				Evictions: evictions,
			})
		}
	}
	return res
}

// Render prints the F6b table.
func (r *CacheBudgetResult) Render() string {
	var b strings.Builder
	b.WriteString(header("F6b", "cache miss rate vs TCAM budget (flash-crowd + scan, exact entries)"))
	var tb metrics.Table
	tb.AddRow("budget", "policy", "miss-rate", "evictions")
	for _, p := range r.Points {
		tb.AddRow(fmt.Sprintf("%d", p.Budget), p.Policy.String(),
			fmt.Sprintf("%.4f", p.MissRate), fmt.Sprintf("%d", p.Evictions))
	}
	b.WriteString(tb.String())
	return b.String()
}

// Render prints the A3 table.
func (r *AblationEvictionResult) Render() string {
	var b strings.Builder
	b.WriteString(header("A3", fmt.Sprintf("cache eviction ablation (cache=%d, exact entries)", r.CacheSize)))
	var tb metrics.Table
	tb.AddRow("policy", "miss-rate", "evictions")
	for _, row := range r.Rows {
		tb.AddRow(row.Policy.String(), fmt.Sprintf("%.4f", row.MissRate),
			fmt.Sprintf("%d", row.Evictions))
	}
	b.WriteString(tb.String())
	return b.String()
}
