package wire

import (
	"sync"
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/proto"
)

// TestRunReturnsAtQuiescence: Run is woken when the last packet of a
// window completes, not at the next tick of a poll, so 200 closed-loop
// windows of 64 cache-hit packets take a few tens of milliseconds — a Run
// that slept even one millisecond per window could not finish in 200. The
// best of five rounds is taken, so a host busy with other test binaries
// fails this only if it is busy throughout.
func TestRunReturnsAtQuiescence(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the data plane this test times")
	}
	const windows, window, budget = 200, 64, 100 * time.Millisecond
	d := hitPathDeployment(t, core.PartitionConfig{})
	var k flowspace.Key
	k[flowspace.FIPSrc], k[flowspace.FTPDst] = 0x0A000001, 1007
	burst := make([]core.PacketIn, window)
	for i := range burst {
		burst[i] = core.PacketIn{Ingress: 0, Key: k, Size: 100}
	}
	warmUntilQuiet(t, d, burst)
	best := time.Duration(1 << 62)
	for round := 0; round < 5 && best > budget; round++ {
		delivered := d.Measurements().Delivered
		start := time.Now()
		for w := 0; w < windows; w++ {
			d.InjectBatch(burst)
			d.Run(30)
		}
		best = min(best, time.Since(start))
		if got := d.Measurements().Delivered - delivered; got != windows*window {
			t.Fatalf("delivered %d of %d packets once every Run had returned", got, windows*window)
		}
	}
	t.Logf("%d windows of %d hit packets: %v", windows, window, best)
	if best > budget {
		t.Fatalf("%d closed-loop windows took %v, want under %v", windows, best, budget)
	}
}

// TestRunWakesWhenSwitchKilled: a Run blocked on an install queued for an
// ingress that cannot apply it returns once that ingress is killed —
// drained() stops counting a dead switch, and the wait has to be told so,
// since nothing polls any more.
func TestRunWakesWhenSwitchKilled(t *testing.T) {
	c := startCluster(t, slack(failoverConfig()))
	ingress := c.byID(1)
	// Stall the ingress between popping an install and applying it, as
	// TestInstallQueueShedding does. (No call on that table from here until
	// Release; the data goroutine has to get past the write to exit, so
	// the view goes before the cluster closes.)
	view := ingress.sw.Table(proto.TableCache).AcquireView()
	defer view.Release()
	injectRedirects(t, c, 1, 1000, 1)
	waitMeasure(t, c, "the redirected packet's delivery", func(m *core.Measurements) bool {
		return m.Delivered == 1
	})
	const horizon = 30
	returned := make(chan time.Time, 1)
	go func() {
		Deploy(c).Run(horizon)
		returned <- time.Now()
	}()
	select {
	case <-returned:
		t.Fatal("Run returned with an install still queued at a live ingress")
	case <-time.After(50 * time.Millisecond):
	}
	killed := time.Now()
	c.KillSwitch(1)
	select {
	case at := <-returned:
		t.Logf("Run returned %v after the kill", at.Sub(killed))
	case <-time.After(5 * time.Second):
		t.Fatalf("Run still blocked 5 s after the stalled ingress was killed (horizon %d s)", horizon)
	}
}

// TestConcurrentRun: any number of goroutines may wait in Run at once, each
// for its own packets; every one of them returns, and by then all of its
// own packets are delivered.
func TestConcurrentRun(t *testing.T) {
	const runners, rounds, flows = 4, 25, 16
	d := hitPathDeployment(t, core.PartitionConfig{})
	var wg sync.WaitGroup
	for g := 0; g < runners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batch := make([]core.PacketIn, flows)
				for i := range batch {
					var k flowspace.Key
					k[flowspace.FIPSrc] = uint64(g<<24 | r<<8 | i)
					k[flowspace.FTPDst] = 1000 + uint64(i%8)
					batch[i] = core.PacketIn{Ingress: uint32(g), Key: k, Size: 100}
				}
				d.InjectBatch(batch)
				d.Run(30)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a goroutine is still in Run 20 s after the last packet went in")
	}
	m := d.Measurements()
	if want := uint64(runners * rounds * flows); m.Delivered != want || m.Drops != (core.Drops{}) || !d.C.drained() {
		t.Fatalf("delivered %d of %d, drops %+v, drained=%v after every Run returned",
			m.Delivered, want, m.Drops, d.C.drained())
	}
}
