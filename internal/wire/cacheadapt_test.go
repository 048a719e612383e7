package wire

import (
	"testing"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/proto"
)

// The adaptation round runs against the live cluster: three exact-match
// entries one ingress holds for port-80 flows are folded into the cover an
// authority would have cached for them — after which a fourth flow is a
// cache hit — and the region's idle timeout is adapted from the entries'
// counters. Nothing else in the suite fails if cacheAdaptLoop stops calling
// the round.
func TestAdaptationRoundOnLiveCluster(t *testing.T) {
	c := startCluster(t, slack(ClusterConfig{
		Switches:           []uint32{0, 1, 2, 3, 4},
		Authorities:        []uint32{2},
		Policy:             testPolicy(),
		Strategy:           core.StrategyExact,
		CacheEviction:      core.EvictCostAware,
		CacheIdle:          30,
		CacheAdaptInterval: 10 * time.Millisecond,
	}))
	d := Deploy(c)
	key := func(src uint64) (k flowspace.Key) {
		k[flowspace.FIPSrc], k[flowspace.FTPDst] = src, 80
		return k
	}
	value := func(name string) float64 {
		v, _ := c.Telemetry().Value(name)
		return v
	}
	deadline := time.Now().Add(5 * time.Second)
	for seq := uint64(0); ; seq++ {
		for src := uint64(1); src <= 3; src++ {
			d.InjectPacket(0, 0, key(src), 100, seq)
		}
		d.Run(1)
		if value("difane_cache_aggregations_total") >= 1 && value("difane_cache_idle_adaptations_total") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d packets a flow: %v aggregations, %v idle adaptations, want one of each",
				seq+1, value("difane_cache_aggregations_total"), value("difane_cache_idle_adaptations_total"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := value("difane_cache_aggregated_entries_total"); got != 3 {
		t.Fatalf("aggregation replaced %v entries, want the 3 exact ones", got)
	}
	entries := c.byID(0).sw.Table(proto.TableCache).Entries()
	if len(entries) != 1 {
		t.Fatalf("ingress cache holds %d entries, want the one cover", len(entries))
	}
	if r := entries[0].Rule; r.ID <= 1<<52 || r.Match != testPolicy()[0].Match || r.Action != testPolicy()[0].Action {
		t.Fatalf("cover = %v, want rule 1's match and action under an aggregation ID", r)
	}
	before := c.Measurements().Redirects
	d.InjectPacket(0, 0, key(4), 100, 0)
	d.Run(1)
	if m := c.Measurements(); m.Redirects != before || m.Delivered == 0 {
		t.Fatalf("a new flow inside the cover was redirected (%d → %d redirects)", before, m.Redirects)
	}
}
