package wire

import (
	"sync"
	"sync/atomic"

	"difane/internal/core"
	"difane/internal/metrics"
)

// Measurement sharding: each node owns a nodeStats shard (plus one extra
// shard for injection-path accounting outside any node goroutine), so the
// hot path touches only its own shard's atomics and never a cluster-wide
// lock; Measurements() merges the shards into one core.Measurements
// snapshot on read. A latency distribution is a fixed array of bucket
// counts, written with plain stores, so each shard's pair sits behind a
// mutex the owning data goroutine takes once per burst and a reader once
// per merge.

// nodeStats is one shard of the cluster's hot-path measurement state.
// Each shard is separately heap-allocated so different nodes' counters
// do not share cache lines.
type nodeStats struct {
	delivered         atomic.Uint64
	setupsCompleted   atomic.Uint64
	redirects         atomic.Uint64
	dropPolicy        atomic.Uint64
	dropHole          atomic.Uint64
	dropQueue         atomic.Uint64
	dropUnreachable   atomic.Uint64
	dropRedirectShed  atomic.Uint64
	cacheInstallsShed atomic.Uint64
	failoversLocal    atomic.Uint64

	// latMu orders the data goroutine's writes to the two distributions
	// against a reader's merge (a Dist is not synchronized). Uncontended
	// in steady state: only the owning node's data goroutine records
	// deliveries.
	latMu      sync.Mutex
	firstDelay metrics.Dist
	laterDelay metrics.Dist
}

// recordDeliveryBatch records a burst's deliveries in one shard update:
// first holds the latencies (seconds) of detoured packets, later the rest.
// One latency-mutex acquisition and one add per counter, however large the
// burst.
func (s *nodeStats) recordDeliveryBatch(first, later []float64) {
	if len(first)+len(later) == 0 {
		return
	}
	s.latMu.Lock()
	for _, v := range first {
		s.firstDelay.Add(v)
	}
	for _, v := range later {
		s.laterDelay.Add(v)
	}
	s.latMu.Unlock()
	if len(first) > 0 {
		s.setupsCompleted.Add(uint64(len(first)))
	}
	s.delivered.Add(uint64(len(first) + len(later)))
}

// mergeInto folds the shard into a cluster-wide snapshot.
func (s *nodeStats) mergeInto(m *core.Measurements) {
	m.Delivered += s.delivered.Load()
	m.SetupsCompleted += s.setupsCompleted.Load()
	m.Redirects += s.redirects.Load()
	m.Drops.Policy += s.dropPolicy.Load()
	m.Drops.Hole += s.dropHole.Load()
	m.Drops.AuthorityQueue += s.dropQueue.Load()
	m.Drops.Unreachable += s.dropUnreachable.Load()
	m.Drops.RedirectShed += s.dropRedirectShed.Load()
	m.CacheInstallsShed += s.cacheInstallsShed.Load()
	m.FailoversLocal += s.failoversLocal.Load()

	s.latMu.Lock()
	m.FirstPacketDelay.Merge(&s.firstDelay)
	m.LaterPacketDelay.Merge(&s.laterDelay)
	s.latMu.Unlock()
}

// coldStats holds the control-plane counters: rare events (deaths,
// reconnects, outages) that never sit on the packet path, kept as plain
// cluster-wide atomics.
type coldStats struct {
	authorityDeaths       atomic.Uint64
	failoversPromoted     atomic.Uint64
	controlReconnects     atomic.Uint64
	controllerOutages     atomic.Uint64
	staleInstallsRejected atomic.Uint64
	leaderElections       atomic.Uint64
	policyRuleInstalls    atomic.Uint64
	policyRuleDeletes     atomic.Uint64

	// haMu orders writes to the two HA timing distributions against
	// concurrent Measurements readers.
	haMu sync.Mutex
	// failoverDetect samples fault→death-verdict latency (seconds).
	failoverDetect metrics.Dist
	// electionTime samples leader-kill→new-leader-seated latency (seconds).
	electionTime metrics.Dist
}

// recordDetection samples one fault→verdict detection latency.
func (s *coldStats) recordDetection(sec float64) {
	s.haMu.Lock()
	s.failoverDetect.Add(sec)
	s.haMu.Unlock()
}

// recordElection samples one leader-election duration.
func (s *coldStats) recordElection(sec float64) {
	s.haMu.Lock()
	s.electionTime.Add(sec)
	s.haMu.Unlock()
}

// mergeInto folds the cold counters into a snapshot.
func (s *coldStats) mergeInto(m *core.Measurements) {
	m.AuthorityDeaths += s.authorityDeaths.Load()
	m.FailoversPromoted += s.failoversPromoted.Load()
	m.ControlReconnects += s.controlReconnects.Load()
	m.ControllerOutages += s.controllerOutages.Load()
	m.StaleInstallsRejected += s.staleInstallsRejected.Load()
	m.LeaderElections += s.leaderElections.Load()
	m.PolicyRuleInstalls += s.policyRuleInstalls.Load()
	m.PolicyRuleDeletes += s.policyRuleDeletes.Load()

	s.haMu.Lock()
	m.FailoverDetection.Merge(&s.failoverDetect)
	m.LeaderElection.Merge(&s.electionTime)
	s.haMu.Unlock()
}
