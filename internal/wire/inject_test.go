package wire

import (
	"testing"

	"difane/internal/core"
	"difane/internal/flowspace"
)

// TestInjectBatchInterleavedIngresses: one batch that cycles packet by
// packet through eight live ingresses, an unknown one and a killed one.
// InjectBatch groups it by ingress; what must survive the grouping is the
// accounting — injected = delivered + dropped, exactly, with the unknown
// and killed ingresses' packets counted unreachable — and each ingress's
// own order, checked at its egress once a warm-up pass has cached every
// flow (IPSrc names the ingress, TPSrc the packet's place in it).
func TestInjectBatchInterleavedIngresses(t *testing.T) {
	const live, perIngress, unknown, killed = 8, 64, 99, 8
	d := Deploy(startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4, 5, 6, 7, killed},
		Authorities: []uint32{2, 5},
		Policy:      egressPolicy(),
		Strategy:    core.StrategyExact,
		QueueDepth:  4096,
	})))
	d.C.KillSwitch(killed)
	var batch []core.PacketIn
	for seq := uint64(0); seq < perIngress; seq++ {
		for _, ingress := range []uint32{0, 1, 2, 3, 4, 5, 6, 7, unknown, killed} {
			var k flowspace.Key
			k[flowspace.FIPSrc], k[flowspace.FTPSrc] = uint64(ingress), seq
			k[flowspace.FTPDst] = 1000 + uint64(ingress+1)%live
			batch = append(batch, core.PacketIn{Ingress: ingress, Key: k, Size: 100, Seq: seq})
		}
	}
	warmUntilQuiet(t, d, batch)
	for len(d.C.Deliveries) > 0 {
		<-d.C.Deliveries
	}

	before := d.Measurements()
	d.InjectBatch(batch)
	d.Run(30)
	m := d.Measurements()
	if got, want := m.Delivered-before.Delivered, uint64(live*perIngress); got != want || m.Redirects != before.Redirects {
		t.Fatalf("warm pass delivered %d of %d, with %d redirects", got, want, m.Redirects-before.Redirects)
	}
	if got, want := m.Drops.Unreachable-before.Drops.Unreachable, uint64(2*perIngress); got != want {
		t.Fatalf("%d packets counted unreachable, want the %d sent to the unknown and killed ingresses", got, want)
	}
	if accounted := m.Delivered + m.Drops.Policy + m.Drops.Lost(); accounted != d.injected.Load() {
		t.Fatalf("injected %d, accounted %d: delivered %d, drops %+v", d.injected.Load(), accounted, m.Delivered, m.Drops)
	}
	next := make(map[uint32]uint16, live)
	for n := 0; n < live*perIngress; n++ {
		del := <-d.C.Deliveries
		ingress := del.Header.IPSrc
		if del.Egress != (ingress+1)%live {
			t.Fatalf("packet from ingress %d delivered at %d", ingress, del.Egress)
		}
		if del.Header.TPSrc != next[ingress] {
			t.Fatalf("ingress %d: packet %d arrived where %d was due", ingress, del.Header.TPSrc, next[ingress])
		}
		next[ingress]++
	}
}

// TestStagedForwardToKilledDestination: frames a switch has written into
// its reservations on a destination's ring, when the destination dies
// before the burst commits them, are never published there — nothing
// drains that ring any more — and are counted unreachable.
func TestStagedForwardToKilledDestination(t *testing.T) {
	c := startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2},
		Policy:      testPolicy(),
	}))
	src, dst := c.byID(0), c.byID(3)
	s := newBurstScratch(c)
	const staged = 3
	for i := 0; i < staged; i++ {
		f := dataFrame{hdr: httpHeader(uint32(i)), size: 100}
		c.stageForward(src, s, dst.id, &f)
	}
	ring := dst.in[src.slot]
	if ring.len() != 0 {
		t.Fatalf("%d staged frames visible before the commit", ring.len())
	}
	c.KillSwitch(dst.id)
	c.flushForwards(src, s)
	if ring.len() != 0 {
		t.Fatalf("%d frames published to a killed switch", ring.len())
	}
	if got := c.Measurements().Drops; got != (core.Drops{Unreachable: staged}) {
		t.Fatalf("drops %+v, want the %d staged frames unreachable", got, staged)
	}
	if len(s.touched) != 0 || s.staged[dst.slot] != 0 {
		t.Fatalf("scratch not reset: touched %v, staged %d", s.touched, s.staged[dst.slot])
	}
}

// BenchmarkInjectBatch prices the injection path end to end: 4096-packet
// batches of warm cache hits, each injected and run to quiescence, in ns
// per packet — entering at one ingress, and cycling all eight packet by
// packet, the bench traces' shape. The sparse case gives the eight
// switches IDs 1<<20 apart, so the ID→slot table's lookups probe past
// collisions instead of landing on the dense IDs 0–7 every bench workload
// uses.
func BenchmarkInjectBatch(b *testing.B) {
	for _, bc := range []struct {
		name      string
		ingresses int
		spacing   uint32
	}{{"one-ingress", 1, 1}, {"interleaved-8", 8, 1}, {"interleaved-8-sparse", 8, 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			ids := make([]uint32, 8)
			for i := range ids {
				ids[i] = uint32(i) * bc.spacing
			}
			policy := egressPolicy()
			for i := range policy {
				policy[i].Action.Arg = ids[policy[i].Action.Arg]
			}
			d := Deploy(startCluster(b, slack(ClusterConfig{
				Switches:    ids,
				Authorities: []uint32{ids[2], ids[5]},
				Policy:      policy,
				Strategy:    core.StrategyExact,
				QueueDepth:  4096,
			})))
			batch := make([]core.PacketIn, 4096)
			for i := range batch {
				var k flowspace.Key
				k[flowspace.FIPSrc], k[flowspace.FTPDst] = uint64(i%64), uint64(1000+i%8)
				batch[i] = core.PacketIn{Ingress: ids[i%bc.ingresses], Key: k, Size: 64}
			}
			warmUntilQuiet(b, d, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.InjectBatch(batch)
				d.Run(30)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/pkt")
		})
	}
}
