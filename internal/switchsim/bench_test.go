package switchsim

import (
	"math/rand"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
)

var sink uint64

// BenchmarkClassifyBurst prices ClassifyBurst per packet on the shape of a
// large ingress cache under skewed traffic: ~700 disjoint wildcard rules,
// keys drawn from 20,000 flows by Zipf rank (s = 1.05), bursts of 64.
func BenchmarkClassifyBurst(b *testing.B) {
	const rules, flows, burst = 700, 20000, 64
	s := New(1, Config{})
	for i := uint64(0); i < rules; i++ {
		r := flowspace.Rule{
			ID: i + 1, Priority: 1,
			Match:  flowspace.MatchAll().WithPrefix(flowspace.FIPDst, 0x0A000000|i<<8, 24),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(i)},
		}
		if err := s.ApplyFlowMod(0, &proto.FlowMod{Table: proto.TableCache, Op: proto.OpAdd, Rule: r}); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.05, 1, flows-1)
	keys := make([]flowspace.Key, 1<<14)
	for i := range keys {
		f := zipf.Uint64()
		keys[i][flowspace.FIPSrc] = 0xC0A80000 | f
		keys[i][flowspace.FIPDst] = 0x0A000000 | f%rules<<8 | f/rules
		keys[i][flowspace.FTPDst] = 80
	}
	sizes := make([]int, burst)
	for i := range sizes {
		sizes[i] = 64
	}
	out := make([]Result, burst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * burst % len(keys)
		s.ClassifyBurst(0, keys[lo:lo+burst], sizes, out)
		sink += out[0].Rule.ID
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/pkt")
}
