package workload

import (
	"math/rand"

	"difane/internal/flowspace"
)

// Flow is one generated traffic flow.
type Flow struct {
	// Key is the flow's concrete header tuple.
	Key flowspace.Key
	// Ingress is the switch the flow enters at.
	Ingress uint32
	// Start is the arrival time of the first packet (seconds).
	Start float64
	// Packets is the number of packets in the flow.
	Packets int
	// Gap is the inter-packet time (seconds).
	Gap float64
	// Size is the packet size in bytes.
	Size int
}

// packetGap is the inter-packet time within a generated flow, in seconds.
const packetGap = 0.01

// TrafficConfig tunes the trace generator.
type TrafficConfig struct {
	// Flows is the number of flow arrivals to generate.
	Flows int
	// Rate is the flow arrival rate (flows per second, Poisson).
	Rate float64
	// ZipfAlpha skews flow popularity (>1; the paper's traces are heavily
	// skewed — a few rules carry most traffic).
	ZipfAlpha float64
	// Population is the number of distinct flow identities popularity is
	// drawn over.
	Population int
	// PacketsMean is the geometric-mean packets per flow.
	PacketsMean int
	// Size is the packet size (bytes).
	Size int
	// Seed makes the trace deterministic.
	Seed int64
}

func (c TrafficConfig) withDefaults() TrafficConfig {
	if c.Flows < 1 {
		c.Flows = 1000
	}
	if c.Rate <= 0 {
		c.Rate = 1000
	}
	if c.ZipfAlpha <= 1 {
		c.ZipfAlpha = 1.2
	}
	if c.Population < 1 {
		c.Population = 10000
	}
	if c.PacketsMean < 1 {
		c.PacketsMean = 10
	}
	if c.Size <= 0 {
		c.Size = 800
	}
	return c
}

// GenerateTraffic builds a Zipf-popularity Poisson-arrival flow trace over
// the spec's policy: the flow population samples concrete headers inside
// the matchable regions of the policy's rules (weighted toward broad
// rules, as real traffic weights are), and each arrival picks a population
// member by Zipf rank.
func GenerateTraffic(spec *Spec, cfg TrafficConfig) []Flow {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	population := makePopulation(rng, spec, cfg.Population)
	if len(population) == 0 {
		return nil
	}
	zipf := rand.NewZipf(rng, cfg.ZipfAlpha, 1, uint64(len(population)-1))

	flows := make([]Flow, 0, cfg.Flows)
	t := 0.0
	for i := 0; i < cfg.Flows; i++ {
		t += rng.ExpFloat64() / cfg.Rate
		member := population[zipf.Uint64()]
		pkts := 1 + int(rng.ExpFloat64()*float64(cfg.PacketsMean))
		flows = append(flows, Flow{
			Key:     member.key,
			Ingress: member.ingress,
			Start:   t,
			Packets: pkts,
			Gap:     packetGap,
			Size:    cfg.Size,
		})
	}
	return flows
}

type popMember struct {
	key     flowspace.Key
	ingress uint32
}

// makePopulation samples distinct flow identities. Each identity picks a
// random policy rule, samples a concrete header inside its match, and
// assigns a random ingress edge switch. Sampling rules uniformly gives
// broad rules no more identities than narrow ones, so popularity skew
// across rules comes from the Zipf rank distribution over identities.
func makePopulation(rng *rand.Rand, spec *Spec, n int) []popMember {
	if len(spec.Policy) == 0 || len(spec.Edges) == 0 {
		return nil
	}
	out := make([]popMember, 0, n)
	for i := 0; i < n; i++ {
		r := spec.Policy[rng.Intn(len(spec.Policy))]
		var rv [flowspace.NumFields]uint64
		for f := range rv {
			rv[f] = rng.Uint64()
		}
		k := r.Match.RandomKeyIn(rv)
		out = append(out, popMember{
			key:     k,
			ingress: spec.Edges[rng.Intn(len(spec.Edges))],
		})
	}
	return out
}

// UniformTraffic generates cfg.Flows flows with distinct random keys (no
// popularity reuse) — the worst case for caching, used by the throughput
// experiments where every arrival is a new flow.
func UniformTraffic(spec *Spec, cfg TrafficConfig) []Flow {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	flows := make([]Flow, 0, cfg.Flows)
	t := 0.0
	for i := 0; i < cfg.Flows; i++ {
		t += rng.ExpFloat64() / cfg.Rate
		r := spec.Policy[rng.Intn(len(spec.Policy))]
		var rv [flowspace.NumFields]uint64
		for f := range rv {
			rv[f] = rng.Uint64()
		}
		flows = append(flows, Flow{
			Key:     r.Match.RandomKeyIn(rv),
			Ingress: spec.Edges[rng.Intn(len(spec.Edges))],
			Start:   t,
			Packets: 1,
			Gap:     packetGap,
			Size:    cfg.Size,
		})
	}
	return flows
}
