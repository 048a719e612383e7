package cachepolicy

import (
	"testing"

	"difane/internal/flowspace"
	"difane/internal/tcam"
)

// seedPolicy builds a policy with a fixed set of region observations, so
// tests exercise the scorer against known inputs.
func seedPolicy() *Policy {
	p := New()
	p.ObserveRedirect(0, 0.002)
	p.ObserveRedirect(1, 0.050) // region 1 misses are 25× costlier
	p.ObserveTraffic(0, 90, 10)
	p.ObserveTraffic(1, 50, 50)
	p.ObserveInterArrival(0, 0.1)
	p.ObserveInterArrival(1, 0.1)
	return p
}

func TestVictimDeterministicForEqualInputs(t *testing.T) {
	cands := []Candidate{
		{ID: 3, Region: 0, Packets: 5, LastHit: 9.0, Installed: 1.0},
		{ID: 1, Region: 1, Packets: 5, LastHit: 9.0, Installed: 1.0},
		{ID: 7, Region: 0, Packets: 50, LastHit: 9.9, Installed: 1.0},
	}
	now := 10.0
	p := seedPolicy()
	first := p.Victim(now, cands)
	if first < 0 {
		t.Fatalf("Victim returned -1 for unpinned candidates")
	}
	for i := 0; i < 100; i++ {
		if got := p.Victim(now, cands); got != first {
			t.Fatalf("iteration %d: Victim = %d, want %d (determinism)", i, got, first)
		}
	}
	// A freshly built policy with identical observations picks identically.
	if got := seedPolicy().Victim(now, cands); got != first {
		t.Fatalf("fresh policy: Victim = %d, want %d", got, first)
	}
}

func TestScoreMonotone(t *testing.T) {
	now := 100.0
	base := Candidate{ID: 1, Region: 0, Packets: 10, LastHit: 99.0, Installed: 10.0}
	cases := []struct {
		name   string
		seed   func() *Policy
		better Candidate // must outscore base under the seeded policy
	}{
		{"more packets", seedPolicy,
			Candidate{ID: 2, Region: 0, Packets: 20, LastHit: 99.0, Installed: 10.0}},
		{"more recent hit", seedPolicy,
			Candidate{ID: 2, Region: 0, Packets: 10, LastHit: 99.9, Installed: 10.0}},
		{"costlier region", seedPolicy,
			Candidate{ID: 2, Region: 1, Packets: 10, LastHit: 99.0, Installed: 10.0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.seed()
			lo, hi := p.Score(now, base), p.Score(now, tc.better)
			if hi <= lo {
				t.Fatalf("Score(%+v)=%g not > Score(%+v)=%g", tc.better, hi, base, lo)
			}
		})
	}

	// Region-level monotonicity: raising a region's observed redirect
	// latency raises its entries' scores.
	p := New()
	before := p.Score(now, base)
	p.ObserveRedirect(0, 1.0) // far above the 1ms default prior
	after := p.Score(now, base)
	if after <= before {
		t.Fatalf("score after latency observation %g not > before %g", after, before)
	}

	// Hit-rate monotonicity: a region that hits more often scores higher
	// than one that mostly misses, all else equal.
	p = New()
	p.ObserveRedirect(0, 0.01)
	p.ObserveRedirect(1, 0.01)
	p.ObserveTraffic(0, 99, 1)
	p.ObserveTraffic(1, 1, 99)
	hot := p.Score(now, base)
	cold := p.Score(now, Candidate{ID: 2, Region: 1, Packets: 10, LastHit: 99.0, Installed: 10.0})
	if hot <= cold {
		t.Fatalf("high-hit-rate region score %g not > low-hit-rate %g", hot, cold)
	}
}

func TestVictimTieBreaksTowardLowerID(t *testing.T) {
	p := New()
	now := 10.0
	// Identical runtime state in the same region: scores are exactly equal.
	cands := []Candidate{
		{ID: 9, Region: 0, Packets: 3, LastHit: 9.0, Installed: 1.0},
		{ID: 2, Region: 0, Packets: 3, LastHit: 9.0, Installed: 1.0},
		{ID: 5, Region: 0, Packets: 3, LastHit: 9.0, Installed: 1.0},
	}
	if got := p.Victim(now, cands); cands[got].ID != 2 {
		t.Fatalf("tie broke to ID %d, want 2", cands[got].ID)
	}
	if got := p.Victim(now, nil); got != -1 {
		t.Fatalf("Victim over empty = %d, want -1", got)
	}
}

func TestAdaptIdle(t *testing.T) {
	p := New()
	if idle, changed := p.AdaptIdle(0); idle != 0 || changed {
		t.Fatalf("AdaptIdle with no observations = (%g,%v), want (0,false)", idle, changed)
	}
	p.ObserveInterArrival(0, 0.5)
	idle, changed := p.AdaptIdle(0)
	if !changed || idle != 4.0 {
		t.Fatalf("AdaptIdle = (%g,%v), want (4,true)", idle, changed)
	}
	// Within the 5% hysteresis band: unchanged.
	if idle, changed = p.AdaptIdle(0); changed || idle != 4.0 {
		t.Fatalf("AdaptIdle repeat = (%g,%v), want (4,false)", idle, changed)
	}
	// Clamps: tiny inter-arrival hits minIdle, huge hits maxIdle.
	p.ObserveInterArrival(1, 1e-6)
	if idle, _ = p.AdaptIdle(1); idle != 0.25 {
		t.Fatalf("min clamp: idle = %g, want 0.25", idle)
	}
	p.ObserveInterArrival(2, 1e6)
	if idle, _ = p.AdaptIdle(2); idle != 60 {
		t.Fatalf("max clamp: idle = %g, want 60", idle)
	}
}

func exactOf(k flowspace.Key) flowspace.Match {
	m := flowspace.MatchAll()
	for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
		m = m.WithExact(f, k[f])
	}
	return m
}

func TestPlanAggregation(t *testing.T) {
	fwd := flowspace.Action{Kind: flowspace.ActForward, Arg: 7}
	region := flowspace.MatchAll()
	rule := flowspace.Rule{ID: 1, Priority: 10, Match: region, Action: fwd}
	regions := []Region{{Match: region,
		CoverOf: func(flowspace.Key) (flowspace.Rule, flowspace.Match, bool) { return rule, region, true }}}

	mkEntry := func(id uint64, k flowspace.Key, act flowspace.Action) tcam.Entry {
		return tcam.Entry{Rule: flowspace.Rule{ID: id, Priority: 10, Match: exactOf(k), Action: act}}
	}
	entries := []tcam.Entry{
		mkEntry(101, flowspace.Key{1, 2, 3, 4, 5}, fwd),
		mkEntry(102, flowspace.Key{6, 7, 8, 9, 1}, fwd),
		mkEntry(103, flowspace.Key{2, 4, 6, 8, 1}, fwd),
		// Action disagrees with the policy: must never be aggregated.
		mkEntry(104, flowspace.Key{3, 3, 3, 3, 3}, flowspace.Action{Kind: flowspace.ActDrop}),
	}

	p := New()
	next := uint64(1 << 52)
	allocID := func() uint64 { next++; return next }
	plans := p.PlanAggregation(entries, regions, allocID)
	if len(plans) != 1 {
		t.Fatalf("got %d plans, want 1: %+v", len(plans), plans)
	}
	pl := plans[0]
	if pl.Region != 0 || len(pl.Replace) != 3 {
		t.Fatalf("plan = %+v, want region 0 replacing 3 entries", pl)
	}
	for _, id := range pl.Replace {
		if id == 104 {
			t.Fatalf("plan replaced entry 104, whose action disagrees with the policy")
		}
	}
	if pl.Cover.Action != fwd || pl.Cover.Match != region || pl.Cover.ID != 1<<52+1 {
		t.Fatalf("cover = %+v, want the region-wide forward rule under the first minted ID", pl.Cover)
	}
	// Below aggregateMin: two agreeing entries (and the foreign one) make
	// no plan.
	if plans := p.PlanAggregation(entries[1:], regions, allocID); len(plans) != 0 {
		t.Fatalf("two agreeing entries produced %d plans, want 0", len(plans))
	}
	// An entry already as wide as its cover, and a key the authority has no
	// cover for, are left alone.
	wide := []tcam.Entry{{Rule: rule}, {Rule: rule}, {Rule: rule}}
	if plans := p.PlanAggregation(wide, regions, allocID); len(plans) != 0 {
		t.Fatalf("wildcard entries produced %d plans, want 0", len(plans))
	}
	regions[0].CoverOf = func(flowspace.Key) (flowspace.Rule, flowspace.Match, bool) {
		return rule, flowspace.Match{}, false
	}
	if plans := p.PlanAggregation(entries, regions, allocID); len(plans) != 0 {
		t.Fatalf("entries without a cover produced %d plans, want 0", len(plans))
	}
}

func TestSetPriors(t *testing.T) {
	p := New()
	p.SetPriors(0.5/10, 900, 100)
	p.mu.Lock()
	lat, hr := p.globalLatency, p.globalHitRate
	p.mu.Unlock()
	if lat != 0.05 {
		t.Fatalf("globalLatency = %g, want 0.05", lat)
	}
	if hr != 0.9 {
		t.Fatalf("globalHitRate = %g, want 0.9", hr)
	}
	// A deployment that has measured nothing yet keeps what it had.
	p.SetPriors(0, 0, 0)
	p.mu.Lock()
	lat, hr = p.globalLatency, p.globalHitRate
	p.mu.Unlock()
	if lat != 0.05 || hr != 0.9 {
		t.Fatalf("empty measurements moved the priors to (%g, %g)", lat, hr)
	}
}
