package experiments

import (
	"fmt"
	"strings"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/metrics"
	"difane/internal/packet"
	"difane/internal/wire"
)

// --- W3: controller outage + miss-storm overload (wire prototype) ---------------

// RobustnessResult reports the two wire-mode robustness scenarios: a miss
// storm against a configured redirect budget, and a controller crash
// ridden out by the switches.
type RobustnessResult struct {
	// Miss-storm phase.
	StormInjected  uint64
	StormDelivered uint64
	RedirectShed   uint64
	InstallShed    uint64
	PeakQueue      int
	QueueBound     int
	StormLost      uint64 // drops other than deliberate shedding

	// Controller-outage phase.
	OutageInjected uint64
	OutageServed   uint64
	OutageLost     uint64
	// OutageNewFlows brand-new flows entered mid-outage;
	// InstalledDuringOutage is their ingress's cache size before the
	// controller came back — new flows cached with no controller.
	OutageNewFlows        int
	InstalledDuringOutage int
	EpochBefore           uint64
	EpochAfter            uint64
}

// wireRobustPolicy forwards HTTP to switch 4 and drops the rest —
// small enough that authority rules fit one partition per authority.
func wireRobustPolicy() []flowspace.Rule {
	return []flowspace.Rule{
		{ID: 1, Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}},
		{ID: 2, Priority: 0, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 4}},
	}
}

func wireHTTP(src uint32) packet.Header {
	return packet.Header{
		EthType: packet.EthTypeIPv4, IPProto: packet.ProtoTCP,
		IPSrc: src, IPDst: packet.IP4(10, 0, 0, 1), TPDst: 80,
	}
}

// settle polls cond for up to 10s — wire mode runs on real goroutines, so
// results are awaited, not stepped.
func settle(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// WireRobustness measures the two failure modes PR'd into wire mode: an
// ingress miss storm against a token-bucket redirect budget (the tail is
// shed, the authority queue stays bounded, every packet is accounted
// for), and a controller crash mid-trace (switches keep forwarding from
// cached + authority rules and keep caching new flows — installs go
// authority → ingress, not through the controller — and a restarted
// controller returns under a higher epoch).
func WireRobustness(o Options) *RobustnessResult {
	res := &RobustnessResult{}
	storm := scaleInt(o, 300)
	const queueDepth = 1024

	// Phase 1: miss storm. Exact caching makes every distinct source a
	// genuine miss; the redirect budget sheds most of a burst of `storm`
	// simultaneous arrivals, and the tighter install budget suppresses
	// cache installs for most of the redirects that do get through.
	{
		c, err := wire.NewCluster(wire.ClusterConfig{
			Switches:    []uint32{0, 1, 2, 3, 4},
			Authorities: []uint32{2, 3},
			Policy:      wireRobustPolicy(),
			Strategy:    core.StrategyExact,
			QueueDepth:  queueDepth,
			Overload: wire.OverloadConfig{
				RedirectRate: 100, RedirectBurst: 32,
				CacheInstallRate: 10, CacheInstallBurst: 2,
			},
		})
		if err != nil {
			panic(err)
		}
		var injected uint64
		for i := 0; i < storm; i++ {
			if c.Inject(0, wireHTTP(uint32(1000+i)), 100) {
				injected++
			}
		}
		// Every injected packet reaches a terminal accounting point:
		// delivered, policy-dropped, or shed.
		settle(func() bool {
			m := c.Measurements()
			total := m.Delivered + m.Drops.Policy + m.Drops.RedirectShed +
				m.Drops.Hole + m.Drops.Unreachable + m.Drops.AuthorityQueue
			return total >= injected
		})
		m := c.Measurements()
		res.StormInjected = injected
		res.StormDelivered = m.Delivered
		res.RedirectShed = m.Drops.RedirectShed
		res.InstallShed = m.CacheInstallsShed
		res.PeakQueue = c.PeakQueueDepth()
		res.QueueBound = queueDepth
		res.StormLost = m.Drops.Hole + m.Drops.Unreachable + m.Drops.AuthorityQueue
		c.Close()
	}

	// Phase 2: controller outage. Warm one cached flow, kill the
	// controller, then push cached and brand-new flows: both must be
	// served entirely in the data plane, and the new flows' cache rules
	// must land at their ingress while the controller is still down.
	{
		c, err := wire.NewCluster(wire.ClusterConfig{
			Switches:    []uint32{0, 1, 2, 3, 4},
			Authorities: []uint32{2, 3},
			Policy:      wireRobustPolicy(),
			Strategy:    core.StrategyExact,
		})
		if err != nil {
			panic(err)
		}
		c.Inject(0, wireHTTP(1), 100)
		settle(func() bool { return c.Measurements().Delivered >= 1 && c.CacheLen(0) > 0 })
		base := c.Measurements()
		res.EpochBefore = c.Epoch()

		c.KillController()
		const cachedPkts, newFlows = 20, 10
		var injected uint64
		for i := 0; i < cachedPkts; i++ {
			if c.Inject(0, wireHTTP(1), 100) {
				injected++
			}
		}
		for i := 0; i < newFlows; i++ {
			if c.Inject(1, wireHTTP(uint32(5000+i)), 100) {
				injected++
			}
		}
		settle(func() bool { return c.Measurements().Delivered >= base.Delivered+injected })
		mid := c.Measurements()
		res.OutageInjected = injected
		res.OutageServed = mid.Delivered - base.Delivered
		res.OutageLost = (mid.Drops.Hole - base.Drops.Hole) +
			(mid.Drops.Unreachable - base.Drops.Unreachable) +
			(mid.Drops.AuthorityQueue - base.Drops.AuthorityQueue)

		settle(func() bool { return c.CacheLen(1) >= newFlows })
		res.OutageNewFlows = newFlows
		res.InstalledDuringOutage = c.CacheLen(1)

		c.RestoreController()
		res.EpochAfter = c.Epoch()
		c.Close()
	}
	return res
}

// Render prints the W3 tables.
func (r *RobustnessResult) Render() string {
	var b strings.Builder
	b.WriteString(header("W3", "wire-mode robustness: miss storm + controller outage"))
	var tb metrics.Table
	tb.AddRow("miss storm (100/s redirect budget)", "value")
	tb.AddRowf("injected", r.StormInjected)
	tb.AddRowf("delivered", r.StormDelivered)
	tb.AddRowf("redirects shed", r.RedirectShed)
	tb.AddRowf("cache installs shed", r.InstallShed)
	tb.AddRow("peak switch queue", fmt.Sprintf("%d / %d", r.PeakQueue, r.QueueBound))
	tb.AddRowf("lost (non-shed drops)", r.StormLost)
	b.WriteString(tb.String())
	accounted := r.StormDelivered + r.RedirectShed + r.StormLost
	fmt.Fprintf(&b, "accounting: %d delivered + %d shed + %d lost = %d of %d injected\n\n",
		r.StormDelivered, r.RedirectShed, r.StormLost, accounted, r.StormInjected)

	var tb2 metrics.Table
	tb2.AddRow("controller outage", "value")
	tb2.AddRowf("packets injected mid-outage", r.OutageInjected)
	tb2.AddRowf("served data-plane only", r.OutageServed)
	tb2.AddRowf("lost", r.OutageLost)
	tb2.AddRow("new flows cached during the outage",
		fmt.Sprintf("%d of %d", r.InstalledDuringOutage, r.OutageNewFlows))
	tb2.AddRow("epoch before -> after", fmt.Sprintf("%d -> %d", r.EpochBefore, r.EpochAfter))
	b.WriteString(tb2.String())
	return b.String()
}
