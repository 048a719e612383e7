package core

import (
	"cmp"
	"slices"
	"sync/atomic"

	"difane/internal/cachepolicy"
	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/switchsim"
	"difane/internal/tcam"
	"difane/internal/telemetry"
)

// aggIDBase offsets aggregation cover-rule IDs above every other ID band
// (policy < 2^32, authority-generated cache rules at 2^40, partition
// rules at 2^50).
const aggIDBase uint64 = 1 << 52

// CacheAdapter is the cost-aware caching layer (internal/cachepolicy) as a
// deployment holds it: it puts the cost model behind every ingress cache
// (VictimFn) and runs the periodic adaptation round (Round). The simulator and wire
// mode hold the same adapter and run the same round; they differ in the
// clock that paces it and in how a changed idle timeout reaches their
// authority handlers. A deployment that is not cost-aware holds a nil one,
// and every method is a no-op on nil, so call sites do not ask.
//
// Round belongs to one goroutine at a time. Victim pickers, the Observe
// feed and SetAssignment (wire commits a policy update live) may run beside
// it.
type CacheAdapter struct {
	pol *cachepolicy.Policy
	// regions holds, per partition of the running assignment, its region
	// and the answer of an Authority of the adapter's own over its rules:
	// no data plane shares it, so asking takes no lock. SetAssignment
	// replaces the slice whole.
	regions atomic.Pointer[[]cachepolicy.Region]
	// aggSeq mints aggregation cover-rule IDs.
	aggSeq uint64
}

// NewCacheAdapter returns the adapter for an eviction choice: nil unless it
// is EvictCostAware.
func NewCacheAdapter(choice EvictionChoice) *CacheAdapter {
	if choice != EvictCostAware {
		return nil
	}
	return &CacheAdapter{pol: cachepolicy.New()}
}

// SetAssignment points the adapter at the assignment the deployment runs:
// its regions are that assignment's partitions, by index.
func (a *CacheAdapter) SetAssignment(assign Assignment) {
	if a == nil {
		return
	}
	regions := make([]cachepolicy.Region, len(assign.Partitions))
	for i, p := range assign.Partitions {
		regions[i] = cachepolicy.Region{Match: p.Region, CoverOf: NewAuthority(0, p, StrategyCover).CoverOf}
	}
	a.regions.Store(&regions)
}

// running returns the regions of the assignment last set (none before).
func (a *CacheAdapter) running() []cachepolicy.Region {
	if r := a.regions.Load(); r != nil {
		return *r
	}
	return nil
}

// regionOfMatch maps a cache rule's match to its partition index (−1 when
// no partition covers it — only possible mid-reassignment). Cache rules
// are clipped to one partition's region, so any member key of the match
// identifies it; the match's Value fields (wildcard bits zero) are such a
// key.
func (a *CacheAdapter) regionOfMatch(m *flowspace.Match) int {
	var k flowspace.Key
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		k[f] = m.Fields[f].Value
	}
	regions := a.running()
	for i := range regions {
		if regions[i].Match.Matches(k) {
			return i
		}
	}
	return -1
}

// VictimFn builds the custom victim picker for one ingress cache, or nil
// when the deployment is not cost-aware. The TCAM calls it with its table
// lock held; the closure reads only the adapter's regions and the policy,
// which locks for itself.
func (a *CacheAdapter) VictimFn() tcam.VictimFunc {
	if a == nil {
		return nil
	}
	// cc is reused from one eviction to the next: the table calls the
	// picker under its write lock, and each table gets a closure of its own.
	var cc []cachepolicy.Candidate
	return func(now float64, cands []tcam.VictimCandidate) int {
		cc = cc[:0]
		for i := range cands {
			c := &cands[i]
			cc = append(cc, cachepolicy.Candidate{
				ID:        c.ID,
				Region:    a.regionOfMatch(&c.Rule.Match),
				Packets:   c.Packets,
				LastHit:   c.LastHit,
				Installed: c.Installed,
			})
		}
		return a.pol.Victim(now, cc)
	}
}

// ObserveHit credits a packet that hit cache rule m to the rule's region.
func (a *CacheAdapter) ObserveHit(m *flowspace.Match) {
	if a != nil {
		a.pol.ObserveTraffic(a.regionOfMatch(m), 1, 0)
	}
}

// ObserveMiss records a redirect the region's authority answered and the
// latency (seconds) the packet had paid by then — the cost a miss in this
// region actually pays; the return leg roughly mirrors it.
func (a *CacheAdapter) ObserveMiss(region int, latency float64) {
	if a != nil {
		a.pol.ObserveRedirect(region, latency)
		a.pol.ObserveTraffic(region, 0, 1)
	}
}

// Idle is the idle timeout in force for a region's cache rules: the adapted
// one once a round has produced it, the deployment's default def until then.
func (a *CacheAdapter) Idle(region int, def float64) float64 {
	if a != nil {
		if ad := a.pol.IdleTimeout(region); ad > 0 {
			return ad
		}
	}
	return def
}

// RegisterMetrics adds the policy's difane_cache_* series to reg.
func (a *CacheAdapter) RegisterMetrics(reg *telemetry.Registry) {
	if a != nil {
		a.pol.RegisterMetrics(reg)
	}
}

// Round is one adaptation round at time now: refresh the policy's priors
// from the deployment's measurements m, feed it per-region inter-arrival
// times derived from the switches' live cache entry counters, hand
// materially-changed idle timeouts to setIdle (which reaches the region's
// authority handlers, under whatever lock the deployment keeps them), and
// aggregate near-microflow cache entries into cover rules with the region's
// idle timeout (idle until adapted). Switches are visited in the
// caller's order: a deterministic order makes runs replay identically.
func (a *CacheAdapter) Round(now float64, m *Measurements, switches []*switchsim.Switch,
	idle float64, setIdle func(region int, idle float64)) {
	if a == nil {
		return
	}
	a.pol.SetPriors(m.FirstPacketDelay.Mean(), m.Delivered, m.Redirects)

	for _, sw := range switches {
		// The EWMA weighs samples by when it sees them: TCAM order keeps
		// a round's result independent of the table's own order.
		es := sw.Table(proto.TableCache).Entries()
		slices.SortFunc(es, func(a, b tcam.Entry) int {
			return cmp.Or(cmp.Compare(b.Rule.Priority, a.Rule.Priority), cmp.Compare(a.Rule.ID, b.Rule.ID))
		})
		for _, e := range es {
			if e.Packets < 2 {
				continue
			}
			span := e.LastHit() - e.Installed()
			if span <= 0 {
				continue
			}
			a.pol.ObserveInterArrival(a.regionOfMatch(&e.Rule.Match), span/float64(e.Packets-1))
		}
	}

	for _, region := range a.pol.Regions() {
		if adapted, changed := a.pol.AdaptIdle(region); changed {
			setIdle(region, adapted)
		}
	}

	allocID := func() uint64 {
		a.aggSeq++
		return aggIDBase + a.aggSeq
	}
	for _, sw := range switches {
		tb := sw.Table(proto.TableCache)
		for _, p := range a.pol.PlanAggregation(tb.Entries(), a.running(), allocID) {
			// Delete first: the freed slots guarantee the cover lands
			// without evicting an unrelated entry.
			for _, rid := range p.Replace {
				tb.Delete(rid)
			}
			mod := proto.FlowMod{Table: proto.TableCache, Op: proto.OpAdd, Rule: p.Cover, Idle: a.Idle(p.Region, idle)}
			_ = sw.ApplyFlowMod(now, &mod)
		}
	}
}

// SetRegionIdleTimeout overrides the idle timeout of one region's cache
// rules on every authority handler serving it.
func (n *Network) SetRegionIdleTimeout(region int, idle float64) {
	for _, a := range n.gen.Handlers {
		if a.RegionIndex == region {
			a.CacheIdleTimeout = idle
		}
	}
}

// startCacheAdaptation schedules the self-rescheduling adaptation tick: one
// CacheAdapter.Round on virtual time, over the switches in ID order.
// No-op for fixed-policy deployments; the engine's Run(horizon) bounds
// execution, so the perpetual tick never blocks termination.
func (n *Network) startCacheAdaptation() {
	if n.cache == nil {
		return
	}
	interval := n.cfg.CacheAdaptInterval
	if interval <= 0 {
		interval = 0.25
	}
	var switches []*switchsim.Switch
	for _, id := range sortedIDs(n.Switches) {
		switches = append(switches, n.Switches[id])
	}
	var tick func()
	tick = func() {
		n.cache.Round(n.Eng.Now(), &n.M, switches, n.cfg.CacheIdle, n.SetRegionIdleTimeout)
		n.Eng.After(interval, tick)
	}
	n.Eng.After(interval, tick)
}
