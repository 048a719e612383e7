package wire

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/telemetry"
	"difane/internal/workload"
)

// egressPolicy forwards TPDst 1000+i to switch i of the 8-switch cluster,
// so flows spread over every egress and the policy splits into up to
// eight partitions.
func egressPolicy() []flowspace.Rule {
	policy := make([]flowspace.Rule, 0, 8)
	for i := uint64(0); i < 8; i++ {
		policy = append(policy, flowspace.Rule{
			ID: i + 1, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 1000+i),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(i)},
		})
	}
	return policy
}

// hitPathDeployment is the 8-switch, 2-authority in-process cluster the
// hit-path tests share.
func hitPathDeployment(t testing.TB, part core.PartitionConfig) *Deployment {
	t.Helper()
	return Deploy(startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4, 5, 6, 7},
		Authorities: []uint32{2, 5},
		Policy:      egressPolicy(),
		Strategy:    core.StrategyExact,
		QueueDepth:  4096,
		Partition:   part,
	})))
}

// warmUntilQuiet replays the trace until one whole pass adds no redirect.
// Run returns only once every install the pass triggered is applied, but
// packets of one flow that share a pass all miss together; a warmed trace
// that keeps redirecting after that is a cache that is losing rules.
func warmUntilQuiet(t testing.TB, d *Deployment, trace []core.PacketIn) {
	t.Helper()
	var extra uint64
	for pass := 0; pass < 20; pass++ {
		before := d.Measurements().Redirects
		d.InjectBatch(trace)
		d.Run(30)
		if extra = d.Measurements().Redirects - before; extra == 0 {
			return
		}
	}
	t.Fatalf("trace of %d packets still redirects %d per pass after 20 passes", len(trace), extra)
}

// TestWireCacheRuleIDsUniqueAcrossPartitions is the wire half of core's
// TestCacheRuleIDsUniqueAcrossPartitions: four or more partitions on two
// authority switches, a fixed 64-flow trace, and once it is warm a further
// pass must add zero redirects.
func TestWireCacheRuleIDsUniqueAcrossPartitions(t *testing.T) {
	d := hitPathDeployment(t, core.PartitionConfig{MaxRulesPerPartition: 2})
	if got := len(d.C.Assignment().Partitions); got < 4 {
		t.Fatalf("want >=4 partitions on 2 authority switches, got %d", got)
	}
	var trace []core.PacketIn
	for src := uint64(1); src <= 8; src++ {
		for port := uint64(1000); port < 1008; port++ {
			var k flowspace.Key
			k[flowspace.FIPSrc], k[flowspace.FTPDst] = src, port
			trace = append(trace, core.PacketIn{Ingress: 0, Key: k, Size: 100})
		}
	}
	warmUntilQuiet(t, d, trace)
	if m := d.Measurements(); m.Drops != (core.Drops{}) {
		t.Fatalf("drops on a lossless trace: %+v", m.Drops)
	}
}

// hitPathAllocBudget is the ceiling on heap allocations per cache-hit
// packet, counted over the whole process (injection, two processBurst
// passes, ring hand-off, delivery accounting, and whatever the control
// loops allocate meanwhile). The hit path allocates nothing per packet,
// latency samples included; what remains is Run's timers and the control
// loops, 0.01 per packet when this was written. A packet passes processBurst at ingress and at egress, so a
// single allocation per frame there reads 2.01: the budget is 1 so that
// even one allocation per packet fails.
const hitPathAllocBudget = 1.0

// TestCacheHitAllocBudget holds the wire hit path to its allocation
// budget: one warm flow, a fixed 200k packets through InjectBatch, and the
// process-wide malloc count over that window divided by the packets —
// once entering at one ingress, once spread over all eight, so the
// grouping InjectBatch does by ingress is inside the count too.
func TestCacheHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the paths this test counts")
	}
	for _, ingresses := range []int{1, 8} {
		t.Run(fmt.Sprintf("ingresses=%d", ingresses), func(t *testing.T) {
			// Closed loop in windows no ring can overflow: a full ring drops.
			const packets, batch, window = 200_000, 250, 2000
			d := hitPathDeployment(t, core.PartitionConfig{})
			var k flowspace.Key
			k[flowspace.FIPSrc], k[flowspace.FTPDst] = 0x0A000001, 1007
			burst := make([]core.PacketIn, batch)
			for i := range burst {
				burst[i] = core.PacketIn{Ingress: uint32(i % ingresses), Key: k, Size: 100}
			}
			warmUntilQuiet(t, d, burst)

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			delivered := d.Measurements().Delivered
			for sent := 0; sent < packets; sent += window {
				for b := 0; b < window; b += batch {
					d.InjectBatch(burst)
				}
				d.Run(30)
			}
			runtime.ReadMemStats(&after)
			if m := d.Measurements(); m.Delivered-delivered != packets {
				t.Fatalf("delivered %d of %d packets, drops %+v, %d switches declared dead, %d partition rules withdrawn",
					m.Delivered-delivered, packets, m.Drops, m.AuthorityDeaths, m.FailoversPromoted)
			}
			perPkt := float64(after.Mallocs-before.Mallocs) / packets
			t.Logf("%.2f allocs/pkt over %d cache-hit packets", perPkt, packets)
			if perPkt > hitPathAllocBudget {
				t.Fatalf("cache-hit path allocates %.2f/pkt, budget %.1f", perPkt, hitPathAllocBudget)
			}
		})
	}
}

// TestRunQuiescesInstalls: Deployment.Run returns only after every cache
// install its packets triggered is applied at the ingress, so a flow set
// replayed the moment Run returns is all cache hits.
func TestRunQuiescesInstalls(t *testing.T) {
	d := hitPathDeployment(t, core.PartitionConfig{})
	const flows = 64
	batch := make([]core.PacketIn, flows)
	for iter := 0; iter < 50; iter++ {
		for i := range batch {
			var k flowspace.Key
			k[flowspace.FIPSrc] = uint64(iter*flows + i + 1)
			k[flowspace.FTPDst] = uint64(1000 + i%8)
			batch[i] = core.PacketIn{Ingress: uint32(i % 8), Key: k, Size: 100}
		}
		d.InjectBatch(batch)
		d.Run(30)
		before := d.Measurements().Redirects
		d.InjectBatch(batch)
		d.Run(30)
		if extra := d.Measurements().Redirects - before; extra != 0 {
			t.Fatalf("iteration %d: %d of %d flows redirected again right after Run", iter, extra, flows)
		}
	}
	if m := d.Measurements(); m.Drops != (core.Drops{}) || m.CacheInstallsShed != 0 {
		t.Fatalf("drops %+v, %d installs shed on a lossless trace", m.Drops, m.CacheInstallsShed)
	}
}

// TestOneCoverOneCacheEntry: a closed-loop window of distinct flows that
// all fall inside one cover is answered with one cache rule under one ID, so
// the installs they trigger land on one ingress cache entry (every flow was
// answered with an ID of its own once, and the ingress held the match that
// many times), and each redirect is a hit in the authority switch's own
// authority table, which is what answers it.
func TestOneCoverOneCacheEntry(t *testing.T) {
	d := Deploy(startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4, 5, 6, 7},
		Authorities: []uint32{2, 5},
		Policy:      egressPolicy(),
		Strategy:    core.StrategyCover,
		QueueDepth:  4096,
	})))
	const flows = 64
	batch := make([]core.PacketIn, flows)
	for i := range batch {
		var k flowspace.Key
		k[flowspace.FIPSrc], k[flowspace.FTPDst] = uint64(0x0A000001+i), 1003
		batch[i] = core.PacketIn{Ingress: 0, Key: k, Size: 100}
	}
	d.InjectBatch(batch)
	d.Run(30)
	m := d.Measurements()
	if m.Redirects != flows || m.Delivered != flows || m.Drops != (core.Drops{}) {
		t.Fatalf("redirects %d, delivered %d of %d flows in one window, drops %+v", m.Redirects, m.Delivered, flows, m.Drops)
	}
	if got := d.C.CacheLen(0); got != 1 {
		t.Fatalf("ingress caches %d entries for %d flows inside one cover, want 1", got, flows)
	}
	var hits, misses uint64
	for _, id := range []uint32{2, 5} {
		tb := d.C.byID(id).sw.Table(proto.TableAuthority)
		hits, misses = hits+tb.Hits.Load(), misses+tb.Misses.Load()
	}
	if hits != flows || misses != 0 {
		t.Fatalf("authority tables count %d hits and %d misses for %d redirects", hits, misses, flows)
	}
	d.InjectBatch(batch)
	d.Run(30)
	if m := d.Measurements(); m.Redirects != flows || m.Delivered != 2*flows {
		t.Fatalf("second window: redirects %d (want %d, all cached), delivered %d", m.Redirects, flows, m.Delivered)
	}
}

// missPathAllocBudget is the ceiling on heap allocations per redirected
// packet, counted over the whole process like hitPathAllocBudget: the
// authority mints and builds a cache rule without allocating, a burst's
// rules travel to each ingress in one core.Install, its one allocation, and
// the ingress writes each rule into the entry it evicts or replaces. An
// allocation per redirect anywhere on the path reads 1. The two tests below
// measure 0.09-0.15. While the authority kept a FlowMod slice per cover and
// the ingress allocated an entry per install, TestMissPathAllocBudget read
// 2.6 per redirect; while every miss minted a cover of its own, 4.4; while
// the insert also rebuilt the index every 256th eviction, 5.6; while cover
// synthesis built every piece of every Subtract, 12.7; with the install
// relayed through the controller as well, 23.6.
const missPathAllocBudget = 0.25

// TestMissPathAllocBudget holds the wire miss path to its allocation
// budget on the benchmark's miss-storm shape: 1k ClassBench-like rules, a
// 256-entry LRU cache per switch, never-repeated keys in closed-loop
// windows of 256 (the install queue's depth, so none is shed).
func TestMissPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the paths this test counts")
	}
	const window, warmWindows, timedWindows = 256, 16, 64
	switches := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: 1024, MaxDepth: 4, PortRangeFrac: 0.1, DropFrac: 0.1,
		Egresses: switches, Seed: 1,
	})
	d := Deploy(startCluster(t, slack(ClusterConfig{
		Switches:      switches,
		Authorities:   []uint32{2, 6},
		Policy:        policy,
		Strategy:      core.StrategyCover,
		CacheCapacity: 256,
		QueueDepth:    4096,
		Partition:     core.PartitionConfig{MaxRulesPerPartition: 256, MaxPartitions: 2},
	})))
	spec := &workload.Spec{Edges: switches, Policy: policy}
	flows := workload.UniformTraffic(spec, workload.TrafficConfig{
		Flows: window * (warmWindows + timedWindows), Size: 64, Seed: 42,
	})
	trace := make([]core.PacketIn, len(flows))
	for i, f := range flows {
		trace[i] = core.PacketIn{Ingress: f.Ingress, Key: f.Key, Size: f.Size}
	}
	play := func(pkts []core.PacketIn) {
		for ; len(pkts) > 0; pkts = pkts[window:] {
			d.InjectBatch(pkts[:window])
			d.Run(30)
		}
	}
	play(trace[:window*warmWindows])

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	base := d.Measurements()
	timed := trace[window*warmWindows:]
	play(timed)
	runtime.ReadMemStats(&after)
	m := d.Measurements()
	done := m.Delivered + m.Drops.Policy - base.Delivered - base.Drops.Policy
	if done != uint64(len(timed)) || m.Drops != (core.Drops{Policy: m.Drops.Policy}) || m.CacheInstallsShed != 0 {
		t.Fatalf("%d of %d packets reached a verdict, drops %+v, %d installs shed, %d switches declared dead, %d partition rules withdrawn",
			done, len(timed), m.Drops, m.CacheInstallsShed, m.AuthorityDeaths, m.FailoversPromoted)
	}
	redirects := m.Redirects - base.Redirects
	perMiss := float64(after.Mallocs-before.Mallocs) / float64(redirects)
	t.Logf("%.3f allocs per redirect over %d packets, %d of them misses", perMiss, len(timed), redirects)
	if 2*redirects < uint64(len(timed)) {
		t.Fatalf("only %d of %d packets missed: not a miss-path measurement", redirects, len(timed))
	}
	if perMiss > missPathAllocBudget {
		t.Fatalf("miss path allocates %.3f per redirect, budget %.2f", perMiss, missPathAllocBudget)
	}
}

// TestCacheMissAllocBudget holds the wire miss path to missPathAllocBudget:
// closed-loop windows of never-repeated flows, spread over every ingress,
// through caches of 32 exact entries each already full, so every packet
// that enters away from its authority switch redirects and every install
// evicts; the process-wide malloc count over the timed windows is divided
// by the redirects. Under -race, which allocates on the paths it counts,
// it checks the path alone: grouped installs applied by each ingress's data
// goroutine into the entries they evict, beside every other goroutine.
func TestCacheMissAllocBudget(t *testing.T) {
	const capacity, window, warm, timed = 32, 256, 4, 40
	d := Deploy(startCluster(t, slack(ClusterConfig{
		Switches:      []uint32{0, 1, 2, 3, 4, 5, 6, 7},
		Authorities:   []uint32{2, 5},
		Policy:        egressPolicy(),
		Strategy:      core.StrategyExact,
		CacheCapacity: capacity,
		QueueDepth:    4096,
	})))
	windows := make([][]core.PacketIn, warm+timed)
	for w := range windows {
		windows[w] = make([]core.PacketIn, window)
		for i := range windows[w] {
			var k flowspace.Key
			k[flowspace.FIPSrc], k[flowspace.FTPDst] = uint64(w*window+i+1), uint64(1000+i%8)
			windows[w][i] = core.PacketIn{Ingress: uint32(i / 32), Key: k, Size: 100}
		}
	}
	for _, w := range windows[:warm] {
		d.InjectBatch(w)
		d.Run(30)
	}
	evictions := func() (n uint64) {
		for _, nd := range d.C.nodes {
			n += nd.sw.Table(proto.TableCache).Evictions.Load()
		}
		return n
	}
	m0, e0 := d.Measurements(), evictions()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, w := range windows[warm:] {
		d.InjectBatch(w)
		d.Run(30)
	}
	runtime.ReadMemStats(&after)
	m := d.Measurements()
	redirects := m.Redirects - m0.Redirects
	if m.Delivered-m0.Delivered != timed*window || m.Drops != (core.Drops{}) || m.CacheInstallsShed != 0 {
		t.Fatalf("delivered %d of %d packets, drops %+v, %d installs shed",
			m.Delivered-m0.Delivered, timed*window, m.Drops, m.CacheInstallsShed)
	}
	if redirects < timed*window*3/4 || evictions()-e0 != redirects {
		t.Fatalf("%d redirects and %d evictions for %d packets, want every packet away from its authority redirected and every install evicting",
			redirects, evictions()-e0, timed*window)
	}
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(redirects)
	t.Logf("%.3f allocs per redirected packet over %d redirects", perPkt, redirects)
	if !raceEnabled && perPkt > missPathAllocBudget {
		t.Fatalf("the miss path allocates %.3f per redirected packet, budget %.2f", perPkt, missPathAllocBudget)
	}
}

// TestCacheIdleTimeoutExpires: a cache rule installed by a miss carries
// ClusterConfig.CacheIdle, and the ingress's data plane runs its tables'
// timeouts, so a flow that returns after idling past it takes the detour
// again and the expiry is traced.
func TestCacheIdleTimeoutExpires(t *testing.T) {
	const idle = 50 * time.Millisecond
	c := startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2},
		Policy:      testPolicy(),
		Strategy:    core.StrategyCover,
		CacheIdle:   idle.Seconds(),
		Telemetry:   TelemetryConfig{Tracing: true},
	}))
	h := httpHeader(1)
	c.Inject(0, h, 100)
	if d := awaitDelivery(t, c); !d.Detour {
		t.Fatal("first packet must travel via the authority")
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.CacheLen(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cache install never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(6 * idle)
	c.Inject(0, h, 100)
	if d := awaitDelivery(t, c); !d.Detour {
		t.Fatalf("flow idle for 6x CacheIdle still hit the ingress cache")
	}
	expired := c.TraceEvents(telemetry.Filter{
		Node: new(uint32), Kinds: []telemetry.EventKind{telemetry.EvExpire},
	})
	if len(expired) == 0 || expired[0].Table != telemetry.TableCache {
		t.Fatalf("no cache-table expire event at ingress 0: %+v", expired)
	}
}
