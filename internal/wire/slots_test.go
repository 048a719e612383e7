package wire

import (
	"math"
	"math/rand"
	"testing"

	"difane/internal/core"
	"difane/internal/flowspace"
)

// byID is the switch with ID id, nil if there is none.
func (c *Cluster) byID(id uint32) *node {
	n, _ := c.node(id)
	return n
}

// denseIDs returns 0..n-1.
func denseIDs(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// TestSlotIndexMatchesMap pins the ID→slot table against a map for dense
// IDs, sparse ones (1<<20 apart, math.MaxUint32 among them) and IDs that
// all share one home cell: every member resolves to its position, and
// non-members — neighbours, IDs sharing the members' home cell, random
// ones — resolve to -1.
func TestSlotIndexMatchesMap(t *testing.T) {
	sparse := func(n int) []uint32 {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(i) << 20
		}
		return append(ids, math.MaxUint32)
	}
	// colliding returns n IDs whose home cell, in a table sized for n, is
	// the same, and n more with that home that are left out of the set.
	colliding := func(n int) (in, out []uint32) {
		sized := newSlotIndex(denseIDs(n))
		want := sized.home(12345)
		for id := uint32(0); len(out) < n; id++ {
			if sized.home(id) != want {
				continue
			}
			if len(in) < n {
				in = append(in, id)
			} else {
				out = append(out, id)
			}
		}
		return in, out
	}
	type set struct {
		name      string
		ids, miss []uint32
	}
	var sets []set
	for _, n := range []int{1, 2, 3, 8, 9, 100, 1000} {
		sets = append(sets, set{name: "dense", ids: denseIDs(n)}, set{name: "sparse", ids: sparse(n)})
		in, out := colliding(n)
		sets = append(sets, set{name: "colliding", ids: in, miss: out})
	}
	rng := rand.New(rand.NewSource(44))
	for _, s := range sets {
		x := newSlotIndex(s.ids)
		want := make(map[uint32]int, len(s.ids))
		for slot, id := range s.ids {
			want[id] = slot
		}
		for id, slot := range want {
			if got := x.slot(id); int(got) != slot {
				t.Fatalf("%s/%d: slot(%d) = %d, want %d", s.name, len(s.ids), id, got, slot)
			}
		}
		miss := append([]uint32{0, 1, math.MaxUint32, math.MaxUint32 - 1}, s.miss...)
		for _, id := range s.ids {
			miss = append(miss, id-1, id+1, id^1<<31)
		}
		for i := 0; i < 1000; i++ {
			miss = append(miss, rng.Uint32())
		}
		for _, id := range miss {
			if _, member := want[id]; member {
				continue
			}
			if got := x.slot(id); got != -1 {
				t.Fatalf("%s/%d: slot(%d) = %d for a non-member", s.name, len(s.ids), id, got)
			}
		}
	}
}

// TestForwardToUnknownSwitchIsUnreachable: a policy rule that forwards to
// a switch ID outside the cluster. The first pass's packets are redirected
// and dropped at the authority switch; once their cache rules are in, the
// ingress answers them itself and counts them unreachable there. Nothing
// is delivered, and injected = delivered + dropped exactly.
func TestForwardToUnknownSwitchIsUnreachable(t *testing.T) {
	const outside, passes, perPass = 99, 3, 16
	d := Deploy(startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2},
		Policy: []flowspace.Rule{{ID: 1, Priority: 10, Match: flowspace.MatchAll(),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: outside}}},
		Strategy: core.StrategyExact,
	})))
	batch := make([]core.PacketIn, perPass)
	for i := range batch {
		var k flowspace.Key
		k[flowspace.FTPSrc] = uint64(i)
		batch[i] = core.PacketIn{Ingress: 0, Key: k, Size: 100, Seq: uint64(i)}
	}
	for pass := 0; pass < passes; pass++ {
		d.InjectBatch(batch)
		d.Run(30)
	}
	m := d.Measurements()
	if m.Delivered != 0 || m.Drops != (core.Drops{Unreachable: passes * perPass}) {
		t.Fatalf("delivered %d, drops %+v: want all %d packets unreachable", m.Delivered, m.Drops, passes*perPass)
	}
	if accounted := m.Delivered + m.Drops.Policy + m.Drops.Lost(); accounted != d.injected.Load() {
		t.Fatalf("injected %d, accounted %d", d.injected.Load(), accounted)
	}
	if got := d.C.byID(0).stats.dropUnreachable.Load(); got != (passes-1)*perPass {
		t.Fatalf("ingress counted %d unreachable, want the %d packets after the first pass", got, (passes-1)*perPass)
	}
}
