// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (see DESIGN.md §3 for the index). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment at full scale and
// reports its headline numbers as custom metrics; `go run ./cmd/difane-bench`
// prints the full tables.
package difane_test

import (
	"testing"
	"time"

	"difane"
	"difane/experiments"
	"difane/internal/flowspace"
	"difane/internal/packet"
	"difane/internal/proto"
	"difane/internal/workload"
)

// benchOpts runs the full-size workloads.
func benchOpts() experiments.Options { return experiments.Bench() }

func BenchmarkTableNetworks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableNetworks(benchOpts())
		if len(r.Rows) != 4 {
			b.Fatal("bad row count")
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigFirstPacketDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigFirstPacketDelay(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(r.DIFANE.Percentile(99)*1e3, "difane-p99-ms")
			b.ReportMetric(r.NOX.Percentile(99)*1e3, "nox-p99-ms")
		}
	}
}

func BenchmarkFigThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigThroughput(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			last := r.Points[len(r.Points)-1]
			b.ReportMetric(last.DIFANE, "difane-setups/s")
			b.ReportMetric(last.NOX, "nox-setups/s")
		}
	}
}

func BenchmarkFigAuthorityScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigAuthorityScaling(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(r.Points[len(r.Points)-1].Setups, "setups/s-at-kmax")
		}
	}
}

func BenchmarkFigPartitionTCAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigPartitionTCAM(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigSplitOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigSplitOverhead(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigCacheMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigCacheMiss(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigStretch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigStretch(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(r.Dists[0].Mean(), "stretch-k1")
			b.ReportMetric(r.Dists[len(r.Dists)-1].Mean(), "stretch-kmax")
		}
	}
}

func BenchmarkFigFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigFailover(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(float64(r.WithBackupLost), "lost-with-backup")
			b.ReportMetric(float64(r.WithoutBackupLost), "lost-without-backup")
		}
	}
}

func BenchmarkFigPolicyChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigPolicyChange(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigCacheTimeout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigCacheTimeout(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigControlLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigControlLoad(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(float64(r.NOXRuntime)/float64(r.Flows), "nox-msgs/flow")
			b.ReportMetric(float64(r.DIFANERuntime)/float64(r.Flows), "difane-msgs/flow")
		}
	}
}

func BenchmarkAblationEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationEviction(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigLinkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigLinkLoad(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(float64(r.Points[0].MaxLoad), "max-link-k1")
			b.ReportMetric(float64(r.Points[len(r.Points)-1].MaxLoad), "max-link-kmax")
		}
	}
}

func BenchmarkAblationRebalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationRebalance(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(r.LoadBefore, "max-share-before")
			b.ReportMetric(r.LoadAfter, "max-share-after")
		}
	}
}

func BenchmarkAblationCacheStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationCacheStrategy(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkAblationPartitioner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPartitioner(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// --- W1: wire-path microbenchmarks -------------------------------------------
//
// Wire-mode throughput, latency and allocation numbers come from the bench/
// module (go run -C bench .).

// BenchmarkWirePath measures end-to-end wire-mode flow setups: inject a
// new flow, it detours via the authority, and is delivered.
func BenchmarkWirePath(b *testing.B) {
	policy := []difane.Rule{
		{ID: 1, Priority: 1, Match: difane.MatchAll(),
			Action: difane.Action{Kind: difane.ActForward, Arg: 3}},
	}
	c, err := difane.NewCluster(difane.ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3},
		Authorities: []uint32{2},
		Policy:      policy,
		Strategy:    difane.StrategyExact, // every flow takes the full path
		QueueDepth:  4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	delivered := 0
	for i := 0; delivered < b.N; i++ {
		h := packet.Header{IPSrc: uint32(i + 1), TPDst: 80}
		for !c.Inject(0, h, 100) {
			time.Sleep(time.Microsecond)
		}
		select {
		case <-c.Deliveries:
			delivered++
		case <-time.After(5 * time.Second):
			b.Fatal("delivery timeout")
		}
	}
}

// BenchmarkProtoEncodeDecode measures control-message round trips.
func BenchmarkProtoEncodeDecode(b *testing.B) {
	m := &proto.FlowMod{
		Table: proto.TableCache, Op: proto.OpAdd,
		Rule: flowspace.Rule{
			ID: 7, Priority: 42,
			Match: flowspace.MatchAll().
				WithPrefix(flowspace.FIPSrc, 0x0A000000, 8).
				WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 3},
		},
		Idle: 10, Hard: 60,
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = proto.Encode(buf[:0], m)
	}
	_ = buf
}

// BenchmarkPartitioner measures partitioning a 10k-rule ACL.
func BenchmarkPartitioner(b *testing.B) {
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: 10000, MaxDepth: 8, PortRangeFrac: 0.25, DropFrac: 0.3,
		Egresses: []uint32{1, 2, 3, 4}, Seed: 9,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := difane.BuildPartitions(policy, difane.PartitionConfig{MaxRulesPerPartition: 512})
		if len(parts) == 0 {
			b.Fatal("no partitions")
		}
	}
}

// BenchmarkTCAMLookup measures single-table classification.
func BenchmarkTCAMLookup(b *testing.B) {
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: 1000, MaxDepth: 6, Egresses: []uint32{1}, Seed: 11,
	})
	var k difane.Key
	k[difane.FIPSrc] = 0x0A0B0C0D
	k[difane.FIPDst] = 0xC0A80101
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		difane.Evaluate(policy, k)
	}
}
