package main

import (
	"fmt"
	"math/rand"
	"sort"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/oracle"
	"difane/internal/workload"
)

// trace is one workload's generated input, built once per run from the
// seed before any timing: the policy, the packets in injection order, and
// the oracle's verdict for every packet. The program under test receives
// only the packets.
type trace struct {
	policy []flowspace.Rule
	// n is the trace length. packets holds the trace followed by a copy of
	// its own head, so a window starting anywhere in [0,n) is contiguous.
	n       int
	packets []core.PacketIn
	// delivered[i] and dropped[i] count, among packets[:i], those the oracle
	// forwards and those it policy-drops.
	delivered, dropped []uint32
	// egress maps a forwarded key to the oracle's egress switch.
	egress map[flowspace.Key]uint32
}

// buildTrace generates the workload's policy and packets. The seed decides
// which flows arrive: for the Zipf workloads it keeps a random half of twice
// as many arrivals generated over a fixed policy and a fixed population of
// flow identities; for the uniform workload it draws every key afresh. The
// policy and the population do not follow the seed. With Zipf skew a
// handful of identities carry most packets, and where a seed happened to
// put them (entering at an authority switch or not, matching at the front
// of the cache or the back) moved every metric by ±15% from seed to seed,
// more than any regression bound.
func buildTrace(w *workloadSpec, seed int64) (*trace, error) {
	edges := switchIDs()
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: w.rules, MaxDepth: 4, PortRangeFrac: 0.1, DropFrac: 0.1,
		Egresses: edges, Seed: structureSeed,
	})
	spec := &workload.Spec{Name: w.name, Edges: edges, Policy: policy}
	var flows []workload.Flow
	if w.zipfAlpha == 0 {
		flows = workload.UniformTraffic(spec, workload.TrafficConfig{
			Flows: w.flows, Size: packetSize, Seed: seed,
		})
	} else {
		arrivals := workload.GenerateTraffic(spec, workload.TrafficConfig{
			Flows: 2 * w.flows, ZipfAlpha: w.zipfAlpha, Population: w.population,
			PacketsMean: 4, Size: packetSize, Seed: structureSeed + 1,
		})
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(arrivals))[:len(arrivals)/2] {
			flows = append(flows, arrivals[i])
		}
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("%s: empty trace", w.name)
	}

	type timed struct {
		at float64
		p  core.PacketIn
	}
	var pkts []timed
	for _, f := range flows {
		for p := 0; p < f.Packets; p++ {
			at := f.Start + float64(p)*f.Gap
			pkts = append(pkts, timed{at, core.PacketIn{
				At: at, Ingress: f.Ingress, Key: f.Key, Size: f.Size, Seq: uint64(p),
			}})
		}
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].at < pkts[j].at })

	n := len(pkts)
	window := w.window
	if w.paced {
		window = pacedBatch
	}
	tr := &trace{
		policy:    policy,
		n:         n,
		packets:   make([]core.PacketIn, 0, n+window),
		delivered: make([]uint32, 1, n+window+1),
		dropped:   make([]uint32, 1, n+window+1),
		egress:    make(map[flowspace.Key]uint32),
	}
	verdicts := make(map[flowspace.Key]oracle.Verdict)
	for i := 0; i < n+window; i++ {
		p := pkts[i%n].p
		v, ok := verdicts[p.Key]
		if !ok {
			v = oracle.Evaluate(policy, p.Key)
			verdicts[p.Key] = v
		}
		d, x := uint32(0), uint32(0)
		switch v.Kind {
		case oracle.Deliver:
			d = 1
			tr.egress[p.Key] = v.Egress
		case oracle.Drop:
			x = 1
		default:
			// A workload on which an operation fails by design is no
			// benchmark; the generators only sample inside policy rules.
			return nil, fmt.Errorf("%s: packet %d falls in a policy hole", w.name, i)
		}
		tr.packets = append(tr.packets, p)
		tr.delivered = append(tr.delivered, tr.delivered[i]+d)
		tr.dropped = append(tr.dropped, tr.dropped[i]+x)
	}
	return tr, nil
}

// cursor walks a trace cyclically in windows and accumulates the oracle's
// expected verdict counts for everything it has handed out.
type cursor struct {
	tr  *trace
	pos int
	// sent, delivered and dropped count packets handed out since the last
	// reset.
	sent, delivered, dropped uint64
}

// next returns the next n packets (n at most the trace's window).
func (c *cursor) next(n int) []core.PacketIn {
	lo, hi := c.pos, c.pos+n
	c.sent += uint64(n)
	c.delivered += uint64(c.tr.delivered[hi] - c.tr.delivered[lo])
	c.dropped += uint64(c.tr.dropped[hi] - c.tr.dropped[lo])
	c.pos = hi % c.tr.n
	return c.tr.packets[lo:hi]
}

// reset zeroes the expected counts, keeping the position.
func (c *cursor) reset() { c.sent, c.delivered, c.dropped = 0, 0, 0 }
