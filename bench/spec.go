package main

import (
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/wire"
)

// Run shape shared by every workload (see README.md, "Run shape").
const (
	numSwitches = 8
	packetSize  = 64
	// queueDepth sizes every data ring. No closed-loop window is larger, so
	// no ring can overflow: loss is zero by construction and any queue drop
	// is a failure, not noise.
	queueDepth = 16384
	// maxRulesPerPartition makes the 1k-rule workloads really partition: the
	// wire default of 4096 would leave one partition and an idle second
	// authority switch. The 64-rule workload stays one partition. The
	// partition count is capped at one per authority switch, because
	// core.Authority mints cache-rule IDs per partition: two partitions with
	// the same primary switch hand out the same IDs, their cache rules
	// replace each other at the ingress, and a hit workload never stops
	// missing.
	maxRulesPerPartition = 256
	// runHorizon bounds one Deployment.Run call, in seconds. A Run that
	// takes this long did not drain and fails its rep.
	runHorizon = 60.0
	// maxWarmPasses caps the converge-until-quiet warm-up, whose windows are
	// warmWindow packets: few enough that the installs one window triggers
	// fit an authority switch's install queue, so none is shed and a pass
	// caches every flow it saw miss. (At full windows most installs of a
	// pass are shed and 1k rules need a dozen passes.)
	maxWarmPasses = 12
	warmWindow    = 256
	// installQueue is the depth of the queue each authority switch feeds its
	// cache installs through (wire sizes it at 256 and does not export it).
	// A window of a bounded-cache workload holds no more packets than that,
	// so every miss's install finds a slot: none is shed, and every miss
	// really ends in an evicting insert at its ingress.
	installQueue = 256
	// Open-loop shape of paced-mix.
	pacedRate  = 20000 // packets per second offered
	pacedBatch = 32    // packets per InjectBatch call
	// egressCheckEvery is the paced drainer's sampling of Delivery.Egress
	// against the oracle: 1 in this many deliveries.
	egressCheckEvery = 16
	minReps          = 3
	// structureSeed fixes the policy and the flow population; the run's seed
	// picks which flows arrive (see buildTrace).
	structureSeed = 1
	maxReps       = 12
)

var authorities = []uint32{2, 6}

func switchIDs() []uint32 {
	ids := make([]uint32, numSwitches)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// workloadSpec fixes one workload. Packet counts are fixed, not seconds:
// a faster build must not be charged more heap for processing more packets.
type workloadSpec struct {
	name, why string
	rules     int
	cacheCap  int // 0 = unbounded
	// flows is the number of flow arrivals in the trace. With zipfAlpha set
	// they draw on a population of that many flow identities by Zipf rank;
	// with zipfAlpha 0 every arrival is a new one-packet flow.
	flows      int
	zipfAlpha  float64
	population int
	// Closed loop: inject a window, wait for every verdict, repeat. The timed
	// phase is cut into blocks of blockWindows windows, each long enough
	// (tens of ms) that Run's 1 ms completion poll averages out inside it.
	window, blockWindows int
	// warmWindows, when >0, is a fixed warm-up; 0 means whole-trace passes
	// until a pass adds no redirect.
	warmWindows  int
	timedPackets int
	// Open loop (paced-mix): warm-up and timed phase in batches.
	paced        bool
	warmBatches  int
	timedBatches int
}

// pacedBatches converts seconds of offered load into InjectBatch calls.
func pacedBatches(seconds float64) int {
	return int(seconds * pacedRate / pacedBatch)
}

// workloads lists the set in canonical order. short shrinks every count so
// the tests finish in seconds; the shape stays the same.
func workloads(short bool) []workloadSpec {
	div := 1
	if short {
		div = 64
	}
	const missWindow, missWarm = installQueue, 32
	missTimed := (128 << 10) / div
	pacedWarm, pacedTimed := pacedBatches(1.0), pacedBatches(2.0)
	if short {
		pacedWarm, pacedTimed = pacedBatches(0.1), pacedBatches(0.2)
	}
	// A flow averages five packets; a quarter as many flows as packets
	// leaves the trace longer than one rep consumes.
	pacedFlows := (pacedWarm + pacedTimed) * pacedBatch / 4
	return []workloadSpec{
		{
			name:  "hit-small",
			why:   "64 rules, ~40 cache entries per switch, closed loop: bare forwarding, where ring hand-off and egress accounting dominate and tcam does almost nothing",
			rules: 64, flows: 4000, zipfAlpha: 1.4, population: 1000,
			window: queueDepth, blockWindows: 16, timedPackets: (4 << 20) / div,
		},
		{
			name:  "hit-large",
			why:   "1024 rules, ~700 cache entries per switch, closed loop: the same hit path with the linear tcam scan doing most of the work",
			rules: 1024, flows: 40000 / div, zipfAlpha: 1.05, population: 20000,
			window: queueDepth, blockWindows: 4, timedPackets: (1 << 20) / div,
		},
		{
			name:  "miss-storm",
			why:   "1024 rules, 256-entry LRU cache, never-repeated keys, closed loop in windows of 256: the flow set-up path, with tcam written beside read because every install evicts",
			rules: 1024, cacheCap: 256, flows: missWarm*missWindow + missTimed,
			window: missWindow, blockWindows: 16, warmWindows: missWarm, timedPackets: missTimed,
		},
		{
			name:  "paced-mix",
			why:   "1024 rules, Zipf flows, open loop at 20000 pps: light-load latency of first and later packets, set by queue dwell and wake-ups rather than CPU",
			rules: 1024, flows: pacedFlows, zipfAlpha: 1.2, population: 20000,
			paced: true, warmBatches: pacedWarm, timedBatches: pacedTimed,
		},
	}
}

// clusterConfig is the deployment every rep builds afresh. Tracing and
// sampling stay off. Both failure detectors stay on, slowed so that a
// saturated 2-core box cannot starve them into declaring live switches
// dead.
func clusterConfig(w *workloadSpec, policy []flowspace.Rule) wire.ClusterConfig {
	return wire.ClusterConfig{
		Switches:      switchIDs(),
		Authorities:   authorities,
		Policy:        policy,
		Strategy:      core.StrategyCover,
		CacheCapacity: w.cacheCap,
		QueueDepth:    queueDepth,
		BFD:           wire.BFDConfig{Interval: 200 * time.Millisecond, DetectMult: 5},
		Heartbeat:     wire.HeartbeatConfig{Interval: time.Second, MissThreshold: 5},
		// The SLO watchdog would re-sort every latency sample once a second,
		// a burst of up to half a core-second that lands on some reps' timed
		// phases and not on others; telemetry.scrape_ms prices one scrape.
		Telemetry: wire.TelemetryConfig{DisableHealth: true},
		Partition: core.PartitionConfig{
			MaxRulesPerPartition: maxRulesPerPartition,
			MaxPartitions:        len(authorities),
		},
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system would see; BENCHMARK.json
// carries their direction and regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_pps", "1/s"},
	{"cpu_us_per_pkt", "us"},
	{"heap_mb", "MB"},
	{"tcam_entries_max", "count"},
	{"first_pkt_p50_us", "us"},
	{"hit_pkt_p50_us", "us"},
}

// perLayer lists the traced run's metrics, grouped by the layer they price.
var perLayer = []metricDef{
	{"packet.key_extract_ns", "ns"},
	{"tcam.cache_lookup_ns", "ns"},
	{"tcam.cache_entries", "count"},
	{"tcam.authority_lookup_ns", "ns"},
	{"tcam.authority_entries", "count"},
	{"tcam.partition_lookup_ns", "ns"},
	{"tcam.partition_entries", "count"},
	{"tcam.insert_evict_ns", "ns"},
	{"switchsim.classify_burst_ns", "ns"},
	{"switchsim.apply_flowmod_ns", "ns"},
	{"flowspace.cover_for_ns", "ns"},
	{"flowspace.cover_for_allocs", "count"},
	{"core.handle_miss_ns", "ns"},
	{"core.handle_miss_allocs", "count"},
	{"core.build_partitions_ms", "ms"},
	{"core.assign_ms", "ms"},
	{"core.partitions", "count"},
	{"core.split_overhead", "ratio"},
	{"proto.cache_install_codec_ns", "ns"},
	{"wire.new_deployment_ms", "ms"},
	{"wire.warm_ms", "ms"},
	{"wire.warm_passes", "count"},
	{"wire.inject_batch_ns", "ns"},
	{"wire.run_wait_ns", "ns"},
	{"wire.allocs_per_pkt", "count"},
	{"wire.miss_ratio", "ratio"},
	{"wire.installs_shed", "count"},
	{"wire.peak_queue_depth", "count"},
	{"wire.queue_drops", "count"},
	{"wire.hole_drops", "count"},
	{"wire.authority_deaths", "count"},
	{"wire.goroutines", "count"},
	{"wire.first_pkt_p95_us", "us"},
	{"wire.first_pkt_p99_us", "us"},
	{"wire.hit_pkt_p95_us", "us"},
	{"wire.hit_pkt_p99_us", "us"},
	{"wire.measurements_ms", "ms"},
	{"wire.close_ms", "ms"},
	{"wire.unattributed_ns", "ns"},
	{"metrics.latency_sample_mb", "MB"},
	{"telemetry.scrape_ms", "ms"},
	{"telemetry.series", "count"},
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"gen.trace_build_s", "s"},
	{"trace.overhead_pct", "%"},
}
