// Package cachepolicy makes DIFANE's ingress caching cost-aware under a
// hard TCAM budget (the FDRC direction): instead of evicting by recency
// alone, victims are scored by *predicted miss cost* — what re-redirecting
// the entry's traffic would cost, estimated from the observed redirect
// latency and hit rate of the entry's flow-space region — idle timeouts
// adapt per region to the observed packet inter-arrival times, and groups
// of near-microflow entries that share one wildcard decision are
// aggregated into a single cover entry.
//
// The policy deliberately stays off the per-packet hot path: region
// statistics are fed by the (already slow) miss path and by periodic
// scrapes of TCAM entry counters, and the victim scorer only runs when a
// full table must evict. Everything is deterministic for equal inputs —
// ties break toward the lower rule ID — so simulation runs replay
// identically and the eviction property tests can pin exact choices.
package cachepolicy

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// The policy's tuning: constants, not options — no deployment has needed
// a second value for any of them.
const (
	// idleMultiple sets the adaptive idle timeout to this multiple of a
	// region's observed mean packet inter-arrival time, clamped to
	// [minIdle, maxIdle] seconds.
	idleMultiple = 8
	minIdle      = 0.25
	maxIdle      = 60
	// alpha is the EWMA weight given to each new latency / inter-arrival
	// observation.
	alpha = 0.25
	// aggregateMin is the minimum number of exact-match entries sharing one
	// cover before aggregation replaces them.
	aggregateMin = 3
	// defaultLatency is the redirect-latency prior, in seconds, for regions
	// with no observations yet on a deployment that has delivered nothing.
	defaultLatency = 1e-3
)

// regionStats accumulates one policy region's (= one flow-space
// partition's) observed behaviour.
type regionStats struct {
	latency float64 // EWMA redirect latency, seconds
	latOK   bool
	inter   float64 // EWMA packet inter-arrival, seconds
	interOK bool
	hits    uint64  // cache hits attributed to the region
	misses  uint64  // redirects attributed to the region
	idle    float64 // last adapted idle timeout (0 = not adapted yet)
}

// Policy is the shared cost model: one instance serves every switch of a
// deployment (region statistics are network-wide). All methods are safe
// for concurrent use.
type Policy struct {
	mu      sync.Mutex
	regions map[int]*regionStats
	// globalLatency / globalHitRate are the deployment-wide priors SetPriors
	// keeps, used for regions with no direct observations.
	globalLatency float64
	globalHitRate float64

	adaptations  atomic.Uint64
	aggregations atomic.Uint64
	aggReplaced  atomic.Uint64
}

// New builds a policy.
func New() *Policy {
	return &Policy{regions: make(map[int]*regionStats)}
}

func (p *Policy) region(i int) *regionStats {
	st := p.regions[i]
	if st == nil {
		st = &regionStats{}
		p.regions[i] = st
	}
	return st
}

func ewma(old float64, ok bool, v float64) float64 {
	if !ok {
		return v
	}
	return old + alpha*(v-old)
}

// ObserveRedirect records one observed redirect latency (seconds) for a
// region — the cost a miss in that region actually paid.
func (p *Policy) ObserveRedirect(region int, latency float64) {
	if latency <= 0 || math.IsInf(latency, 0) || math.IsNaN(latency) {
		return
	}
	p.mu.Lock()
	st := p.region(region)
	st.latency = ewma(st.latency, st.latOK, latency)
	st.latOK = true
	p.mu.Unlock()
}

// ObserveInterArrival records one observed mean packet inter-arrival time
// (seconds) for a region, typically derived from a cache entry's counters
// as (lastHit − installed) / (packets − 1).
func (p *Policy) ObserveInterArrival(region int, inter float64) {
	if inter <= 0 || math.IsInf(inter, 0) || math.IsNaN(inter) {
		return
	}
	p.mu.Lock()
	st := p.region(region)
	st.inter = ewma(st.inter, st.interOK, inter)
	st.interOK = true
	p.mu.Unlock()
}

// ObserveTraffic adds cache-hit and miss (redirect) deltas for a region;
// their ratio is the region hit rate that weights the miss cost.
func (p *Policy) ObserveTraffic(region int, hits, misses uint64) {
	p.mu.Lock()
	st := p.region(region)
	st.hits += hits
	st.misses += misses
	p.mu.Unlock()
}

// SetPriors refreshes the deployment-wide priors from the deployment's own
// measurements: the mean first-packet delay in seconds (the measured cost
// of a redirect detour) and the cache hit rate implied by the delivered vs
// redirected totals. Regions without direct observations score against
// these priors, so the cost model starts sane on a cold deployment.
func (p *Policy) SetPriors(firstPacketDelay float64, delivered, redirects uint64) {
	p.mu.Lock()
	if firstPacketDelay > 0 {
		p.globalLatency = firstPacketDelay
	}
	if total := delivered + redirects; total > 0 {
		hr := float64(delivered) / float64(total)
		if hr < 0.05 {
			hr = 0.05
		}
		p.globalHitRate = hr
	}
	p.mu.Unlock()
}

// regionView returns the scoring inputs for a region under p.mu: the
// redirect latency, hit rate, and recency scale (inter-arrival), falling
// back to the deployment-wide priors and defaultLatency.
func (p *Policy) regionView(region int) (lat, hitRate, tau float64) {
	st := p.regions[region]
	lat = p.globalLatency
	if lat <= 0 {
		lat = defaultLatency
	}
	hitRate = p.globalHitRate
	if hitRate <= 0 {
		hitRate = 0.5
	}
	tau = 1.0
	if st != nil {
		if st.latOK {
			lat = st.latency
		}
		if total := st.hits + st.misses; total > 0 {
			hitRate = float64(st.hits) / float64(total)
		}
		if st.interOK {
			tau = st.inter
		}
	}
	if hitRate < 0.05 {
		hitRate = 0.05 // never let a cold region zero out the cost ordering
	}
	if tau <= 0 {
		tau = 1.0
	}
	return lat, hitRate, tau
}

// Candidate is one eviction candidate: a cache entry's runtime state plus
// the flow-space region it belongs to (−1 when unknown).
type Candidate struct {
	ID        uint64
	Region    int
	Packets   uint64
	LastHit   float64
	Installed float64
}

// Score returns the candidate's predicted miss cost: the expected extra
// latency the deployment pays if the entry is evicted now. It is the
// entry's observed packet rate (its re-reference likelihood), decayed by
// time since the last hit on the region's inter-arrival scale, priced at
// the region's observed redirect latency and weighted by the region's hit
// rate. Monotone: increasing in Packets and LastHit recency, increasing
// in the region's latency and hit rate.
func (p *Policy) Score(now float64, c Candidate) float64 {
	p.mu.Lock()
	lat, hitRate, tau := p.regionView(c.Region)
	p.mu.Unlock()
	life := now - c.Installed
	if life < tau {
		life = tau // young entries score on at most one inter-arrival of history
	}
	rate := (float64(c.Packets) + 1) / life // +1: an entry was installed for a reason
	idle := now - c.LastHit
	if idle < 0 {
		idle = 0
	}
	return lat * hitRate * rate / (1 + idle/tau)
}

// Victim picks the index of the candidate with the lowest predicted miss
// cost; ties break toward the lower rule ID, so equal inputs always
// produce the same choice. Returns −1 when cands is empty.
func (p *Policy) Victim(now float64, cands []Candidate) int {
	best := -1
	var bestScore float64
	for i, c := range cands {
		s := p.Score(now, c)
		if best < 0 || s < bestScore || (s == bestScore && c.ID < cands[best].ID) {
			best, bestScore = i, s
		}
	}
	return best
}

// AdaptIdle recomputes a region's idle timeout from its observed
// inter-arrival EWMA — idleMultiple × inter-arrival, clamped to
// [minIdle, maxIdle] — and returns it along with whether it changed
// materially (>5%) since the last adaptation. Regions with no
// inter-arrival observations return (0, false): keep the configured
// static timeout.
func (p *Policy) AdaptIdle(region int) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.regions[region]
	if st == nil || !st.interOK {
		return 0, false
	}
	idle := idleMultiple * st.inter
	if idle < minIdle {
		idle = minIdle
	}
	if idle > maxIdle {
		idle = maxIdle
	}
	prev := st.idle
	if prev > 0 && math.Abs(idle-prev) <= 0.05*prev {
		return prev, false
	}
	st.idle = idle
	p.adaptations.Add(1)
	return idle, true
}

// IdleTimeout returns a region's last adapted idle timeout (0 = never
// adapted; callers keep their configured default).
func (p *Policy) IdleTimeout(region int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.regions[region]; st != nil {
		return st.idle
	}
	return 0
}

// Regions returns the region indices with any recorded state, sorted.
func (p *Policy) Regions() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.regions))
	for i := range p.regions {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}
