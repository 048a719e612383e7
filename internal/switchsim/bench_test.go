package switchsim

import (
	"math/rand"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
)

var sink uint64

// BenchmarkClassifyBurst prices ClassifyBurst per packet at each table a
// repeat packet is answered from, under skewed traffic: keys drawn from
// 20,000 flows by Zipf rank (s = 1.05) into 700 /24s, bursts of 64. /cache
// is a large ingress cache, ~700 disjoint wildcard rules; /authority is an
// authority switch, its cache empty and 1,024 rules in its authority
// table's running band (bit 32 of the ID, as a generation band sits above
// the 32-bit policy rule ID).
func BenchmarkClassifyBurst(b *testing.B) {
	const flows, burst, prefixes = 20000, 64, 700
	for _, bc := range []struct {
		name  string
		table proto.Table
		rules uint64
		band  uint64
	}{{"cache", proto.TableCache, 700, 0}, {"authority", proto.TableAuthority, 1024, 1 << 32}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(1, Config{})
			s.SetAuthorityBand(bc.band, bc.band)
			for i := uint64(0); i < bc.rules; i++ {
				r := flowspace.Rule{
					ID: bc.band | (i + 1), Priority: 1,
					Match:  flowspace.MatchAll().WithPrefix(flowspace.FIPDst, 0x0A000000|i<<8, 24),
					Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(i)},
				}
				if err := s.ApplyFlowMod(0, &proto.FlowMod{Table: bc.table, Op: proto.OpAdd, Rule: r}); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(7))
			zipf := rand.NewZipf(rng, 1.05, 1, flows-1)
			keys := make([]flowspace.Key, 1<<14)
			for i := range keys {
				f := zipf.Uint64()
				keys[i][flowspace.FIPSrc] = 0xC0A80000 | f
				keys[i][flowspace.FIPDst] = 0x0A000000 | f%prefixes<<8 | f/prefixes
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
		})
	}
}
