// Package scencheck is the differential correctness harness: it derives a
// random scenario — policy, topology, workload, policy updates, and fault
// schedule — from a single int64 seed, replays it through every deployment
// (the discrete-event simulator, the reactive baseline, and the wire-mode
// prototype), and asserts that each packet's fate matches the reference
// oracle (internal/oracle) plus the global invariants the architecture
// promises: the accounting identity, epoch monotonicity across controller
// restarts, cache-rule soundness, and post-convergence table equality with
// a freshly computed assignment. Failures shrink to a minimal repro.
//
// Everything about a scenario is a pure function of the seed: generation
// uses only the seeded PRNG, never the wall clock, so a reported seed
// reproduces the exact policy, packets, and fault schedule anywhere.
package scencheck

import (
	"math/rand"

	"difane/internal/core"
	"difane/internal/flowspace"
)

// StepKind discriminates the events of a scenario's schedule.
type StepKind uint8

// Scenario step kinds.
const (
	// StepPacket injects one packet and checks its verdict.
	StepPacket StepKind = iota
	// StepUpdatePolicy replaces the operator policy (the controller's
	// consistent update in the simulator and in wire mode; by redeployment
	// in the baseline).
	StepUpdatePolicy
	// StepKillSwitch fails a switch (sim: node down + controller failover;
	// wire: KillSwitch — permanent; baseline: ignored).
	StepKillSwitch
	// StepHealSwitch revives a previously killed switch (sim only; wire
	// switch deaths are permanent, matching its crash model).
	StepHealSwitch
	// StepKillController crashes the controller.
	StepKillController
	// StepRestoreController restarts the controller (sim: journal
	// recovery; wire: RestoreController). The restarted controller must
	// run under a strictly higher epoch.
	StepRestoreController
)

func (k StepKind) String() string {
	switch k {
	case StepPacket:
		return "packet"
	case StepUpdatePolicy:
		return "update-policy"
	case StepKillSwitch:
		return "kill-switch"
	case StepHealSwitch:
		return "heal-switch"
	case StepKillController:
		return "kill-controller"
	case StepRestoreController:
		return "restore-controller"
	default:
		return "step(?)"
	}
}

// Step is one event in a scenario's schedule. Which fields are meaningful
// depends on Kind.
type Step struct {
	Kind    StepKind
	Ingress uint32           // StepPacket
	Key     flowspace.Key    // StepPacket
	Policy  []flowspace.Rule // StepUpdatePolicy
	Switch  uint32           // StepKillSwitch / StepHealSwitch
}

// Link is one undirected edge of the scenario topology.
type Link struct {
	A, B    uint32
	Latency float64
}

// Scenario is a fully explicit test case: everything the checker needs to
// replay it is in the value itself (the seed is carried for reporting
// only), which is what makes shrinking by structural deletion possible.
type Scenario struct {
	Seed        int64
	Switches    []uint32
	Links       []Link
	Authorities []uint32
	Strategy    core.CacheStrategy
	// Eviction selects the cache-eviction policy every deployment runs
	// under (zero value: the default LRU).
	Eviction core.EvictionChoice
	// TCAMBudget, when positive, caps each switch's total TCAM occupancy
	// (cache + authority + partition); the cache gets whatever the
	// mandatory tables leave over, possibly nothing.
	TCAMBudget int
	Policy     []flowspace.Rule
	Steps      []Step
}

// Packets counts the packet steps in the schedule.
func (sc Scenario) Packets() int {
	n := 0
	for _, st := range sc.Steps {
		if st.Kind == StepPacket {
			n++
		}
	}
	return n
}

// Config tunes scenario generation.
type Config struct {
	// Packets is the number of packet steps to generate (default 16).
	Packets int
	// Faults enables switch/controller fault steps.
	Faults bool
	// Updates enables policy-update steps.
	Updates bool
	// Adaptive makes the scenario exercise adaptive caching: a randomized
	// eviction policy under a tight per-switch TCAM budget, plus a
	// flash-crowd / region-scan / revisit packet workload appended to the
	// schedule — the traffic shape that makes eviction decisions (and
	// cover-rule aggregation) actually fire.
	Adaptive bool
}

// DefaultConfig generates scenarios exercising everything.
func DefaultConfig() Config { return Config{Packets: 16, Faults: true, Updates: true} }

// AdaptiveConfig generates budget-constrained adaptive-caching scenarios:
// policy updates stay on (stale aggregated covers must not survive an
// update), faults stay off (cache churn, not failover, is under test).
func AdaptiveConfig() Config { return Config{Packets: 8, Updates: true, Adaptive: true} }

func (c *Config) defaults() {
	if c.Packets <= 0 {
		c.Packets = 16
	}
}

// Generate derives a scenario from the seed: a 2-connected ring-plus-chords
// topology (so one dead switch never partitions it), two authority
// switches, an overlapping prioritized policy over a small address pool
// (overlap is where caching strategies disagree), and a schedule
// interleaving packets with policy updates and faults. Deterministic: same
// seed, same scenario.
func Generate(seed int64, cfg Config) Scenario {
	cfg.defaults()
	rng := rand.New(rand.NewSource(seed))

	nsw := 4 + rng.Intn(5) // 4..8 switches
	sc := Scenario{Seed: seed, Strategy: core.CacheStrategy(rng.Intn(3))}
	if cfg.Adaptive {
		// Cost-aware most of the time (it is the policy under test), with
		// LRU/LFU sprinkled in so the harness also replays the ablation
		// baselines under the same budgets.
		sc.Eviction = []core.EvictionChoice{
			core.EvictCostAware, core.EvictCostAware,
			core.EvictDefaultLRU, core.EvictLFU,
		}[rng.Intn(4)]
		// Tight enough that authority switches squeeze their caches — during
		// a consistent update's generation overlap, sometimes to nothing.
		// Verdicts must not care: an uncacheable flow just keeps detouring.
		sc.TCAMBudget = 16 + rng.Intn(16)
	}
	for i := 0; i < nsw; i++ {
		sc.Switches = append(sc.Switches, uint32(i))
	}
	// Ring: removing any single node leaves the rest connected.
	for i := 0; i < nsw; i++ {
		sc.Links = append(sc.Links, Link{
			A: uint32(i), B: uint32((i + 1) % nsw),
			Latency: 0.001 + 0.001*rng.Float64(),
		})
	}
	// A couple of random chords for path diversity.
	for c := 0; c < rng.Intn(3); c++ {
		a := uint32(rng.Intn(nsw))
		b := uint32(rng.Intn(nsw))
		if a != b {
			sc.Links = append(sc.Links, Link{A: a, B: b, Latency: 0.001 + 0.002*rng.Float64()})
		}
	}
	// Two distinct authorities, so replication 2 always has a live replica
	// while at most one switch is down.
	a1 := uint32(rng.Intn(nsw))
	a2 := uint32(rng.Intn(nsw - 1))
	if a2 >= a1 {
		a2++
	}
	sc.Authorities = []uint32{a1, a2}

	sc.Policy = genPolicy(rng, nsw)

	// Schedule. The generator tracks controller and switch liveness so it
	// never emits a step the scenario semantics cannot honor (no updates or
	// kills while the controller is down, at most one switch dead, one kill
	// per scenario so the wire mode's permanent deaths stay survivable).
	ctlDown := false
	deadSwitch := int64(-1)
	killsLeft := 1
	curPolicy := sc.Policy
	for p := 0; p < cfg.Packets; {
		roll := rng.Float64()
		switch {
		case cfg.Updates && !ctlDown && roll < 0.07:
			curPolicy = mutatePolicy(rng, curPolicy, nsw)
			sc.Steps = append(sc.Steps, Step{Kind: StepUpdatePolicy, Policy: curPolicy})
		case cfg.Faults && !ctlDown && deadSwitch < 0 && killsLeft > 0 && roll < 0.14:
			victim := uint32(rng.Intn(nsw))
			killsLeft--
			deadSwitch = int64(victim)
			sc.Steps = append(sc.Steps, Step{Kind: StepKillSwitch, Switch: victim})
		case cfg.Faults && !ctlDown && deadSwitch >= 0 && roll < 0.30:
			sc.Steps = append(sc.Steps, Step{Kind: StepHealSwitch, Switch: uint32(deadSwitch)})
			deadSwitch = -1
		case cfg.Faults && !ctlDown && roll < 0.36:
			ctlDown = true
			sc.Steps = append(sc.Steps, Step{Kind: StepKillController})
		case ctlDown && roll < 0.60:
			ctlDown = false
			sc.Steps = append(sc.Steps, Step{Kind: StepRestoreController})
		default:
			sc.Steps = append(sc.Steps, Step{
				Kind:    StepPacket,
				Ingress: uint32(rng.Intn(nsw)),
				Key:     genKey(rng, curPolicy),
			})
			p++
		}
	}
	// End live and converged, so the end-of-scenario convergence audit
	// (fresh-controller table equality) runs against a healthy network.
	if ctlDown {
		sc.Steps = append(sc.Steps, Step{Kind: StepRestoreController})
	}
	if deadSwitch >= 0 {
		sc.Steps = append(sc.Steps, Step{Kind: StepHealSwitch, Switch: uint32(deadSwitch)})
	}
	if cfg.Adaptive {
		appendAdaptivePhases(rng, &sc, curPolicy, nsw)
	}
	return sc
}

// appendAdaptivePhases adds the cache-churn workload adaptive scenarios
// run after the random schedule: a flash crowd (a few hot keys injected
// repeatedly — repeat hits are what the cost scorer prices), a region scan
// (a run of never-repeating keys manufacturing eviction pressure), and a
// hot revisit (the flash crowd again — under cost-aware eviction these
// should still be cheap, but whatever the policy did, every verdict must
// still match the oracle). All phases are ordinary packet steps, so the
// existing per-packet oracle diff and the end-of-scenario cache-soundness
// audit (which now sees adapted timeouts and aggregated cover rules) apply
// unchanged.
func appendAdaptivePhases(rng *rand.Rand, sc *Scenario, policy []flowspace.Rule, nsw int) {
	type hotFlow struct {
		ingress uint32
		key     flowspace.Key
	}
	hot := make([]hotFlow, 3)
	for i := range hot {
		hot[i] = hotFlow{ingress: uint32(rng.Intn(nsw)), key: genKey(rng, policy)}
	}
	crowd := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for _, h := range hot {
				sc.Steps = append(sc.Steps, Step{Kind: StepPacket, Ingress: h.ingress, Key: h.key})
			}
		}
	}
	crowd(4)
	// The scan: fresh keys, one packet each — pure cache-fill churn.
	for i := 0; i < 10; i++ {
		sc.Steps = append(sc.Steps, Step{
			Kind:    StepPacket,
			Ingress: uint32(rng.Intn(nsw)),
			Key:     genKey(rng, policy),
		})
	}
	crowd(2)
}

// The address pool: a handful of /24s under 10.0.0.0/16 plus a few hosts
// in each. Small on purpose — overlap between rules, and between packets
// and rules, is where the interesting disagreements live.
func poolIP(rng *rand.Rand) (value uint64, plen uint) {
	subnet := uint64(0x0A000000 | rng.Intn(8)<<8)
	switch rng.Intn(4) {
	case 0:
		return 0x0A000000, 16 // the whole pool
	case 1, 2:
		return subnet, 24
	default:
		return subnet | uint64(rng.Intn(4)), 32
	}
}

var poolPorts = []uint64{80, 443, 8080}

// genPolicy builds 4–12 overlapping prioritized rules over the pool, with
// deliberate priority ties (tie-break bugs hide there), plus a catch-all
// so the generated policy has no holes (holes appear during shrinking when
// rules are removed, and the oracle models them too).
func genPolicy(rng *rand.Rand, nsw int) []flowspace.Rule {
	n := 4 + rng.Intn(9)
	rules := make([]flowspace.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		m := flowspace.MatchAll()
		if rng.Float64() < 0.8 {
			v, plen := poolIP(rng)
			m = m.WithPrefix(flowspace.FIPSrc, v, plen)
		}
		if rng.Float64() < 0.8 {
			v, plen := poolIP(rng)
			m = m.WithPrefix(flowspace.FIPDst, v, plen)
		}
		if rng.Float64() < 0.5 {
			m = m.WithExact(flowspace.FTPDst, poolPorts[rng.Intn(len(poolPorts))])
		}
		act := flowspace.Action{Kind: flowspace.ActDrop}
		if rng.Float64() < 0.6 {
			act = flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(rng.Intn(nsw))}
		}
		rules = append(rules, flowspace.Rule{
			ID:       uint64(i + 1),
			Priority: int32(1 + rng.Intn(5)),
			Match:    m,
			Action:   act,
		})
	}
	// Catch-all default at priority 0.
	def := flowspace.Action{Kind: flowspace.ActDrop}
	if rng.Float64() < 0.5 {
		def = flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(rng.Intn(nsw))}
	}
	rules = append(rules, flowspace.Rule{
		ID: uint64(n + 1), Priority: 0, Match: flowspace.MatchAll(), Action: def,
	})
	return withCounts(rules)
}

// withCounts turns every forward rule whose ID is ≡ 0 mod 4 into a count
// rule with the same egress, so that the differential covers that action on
// every backend. It draws nothing from the RNG: every seed's packet and step
// stream is what it would be without it.
func withCounts(rules []flowspace.Rule) []flowspace.Rule {
	for i := range rules {
		if rules[i].ID%4 == 0 && rules[i].Action.Kind == flowspace.ActForward {
			rules[i].Action.Kind = flowspace.ActCount
		}
	}
	return rules
}

// genKey picks a packet: usually inside a random rule's region (so rule
// semantics actually get exercised), sometimes from the raw pool.
func genKey(rng *rand.Rand, policy []flowspace.Rule) flowspace.Key {
	var fill [flowspace.NumFields]uint64
	for i := range fill {
		fill[i] = rng.Uint64()
	}
	if len(policy) > 0 && rng.Float64() < 0.7 {
		m := policy[rng.Intn(len(policy))].Match
		k := m.RandomKeyIn(fill)
		// Pull the wildcarded IP/port fields back into the pool so the key
		// still collides with other rules.
		if m.Fields[flowspace.FIPSrc].IsWildcard() {
			k[flowspace.FIPSrc] = pooledIP(rng)
		}
		if m.Fields[flowspace.FIPDst].IsWildcard() {
			k[flowspace.FIPDst] = pooledIP(rng)
		}
		if m.Fields[flowspace.FTPDst].IsWildcard() {
			k[flowspace.FTPDst] = poolPorts[rng.Intn(len(poolPorts))]
		}
		return k
	}
	k := flowspace.MatchAll().RandomKeyIn(fill)
	k[flowspace.FIPSrc] = pooledIP(rng)
	k[flowspace.FIPDst] = pooledIP(rng)
	k[flowspace.FTPDst] = poolPorts[rng.Intn(len(poolPorts))]
	return k
}

func pooledIP(rng *rand.Rand) uint64 {
	return uint64(0x0A000000 | rng.Intn(8)<<8 | rng.Intn(4))
}

// mutatePolicy derives the next policy version: swap two priorities,
// retarget an action, add a rule, or remove one. The catch-all (last rule)
// is never removed and rule IDs stay within 32 bits, respecting the
// consistent-update generation banding.
func mutatePolicy(rng *rand.Rand, policy []flowspace.Rule, nsw int) []flowspace.Rule {
	out := append([]flowspace.Rule(nil), policy...)
	switch rng.Intn(4) {
	case 0: // swap priorities
		if len(out) >= 2 {
			i, j := rng.Intn(len(out)-1), rng.Intn(len(out)-1)
			out[i].Priority, out[j].Priority = out[j].Priority, out[i].Priority
		}
	case 1: // retarget or flip an action (a count rule forwards too)
		i := rng.Intn(len(out))
		if out[i].Action.Kind != flowspace.ActDrop && rng.Float64() < 0.5 {
			out[i].Action = flowspace.Action{Kind: flowspace.ActDrop}
		} else {
			out[i].Action = flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(rng.Intn(nsw))}
		}
	case 2: // add a rule
		maxID := uint64(0)
		for _, r := range out {
			if r.ID > maxID {
				maxID = r.ID
			}
		}
		m := flowspace.MatchAll()
		v, plen := poolIP(rng)
		m = m.WithPrefix(flowspace.FIPSrc, v, plen)
		if rng.Float64() < 0.5 {
			v, plen = poolIP(rng)
			m = m.WithPrefix(flowspace.FIPDst, v, plen)
		}
		act := flowspace.Action{Kind: flowspace.ActDrop}
		if rng.Float64() < 0.6 {
			act = flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(rng.Intn(nsw))}
		}
		out = append(out, flowspace.Rule{
			ID: maxID + 1, Priority: int32(1 + rng.Intn(5)), Match: m, Action: act,
		})
	default: // remove a non-catch-all rule
		if len(out) > 2 {
			i := rng.Intn(len(out) - 1)
			out = append(out[:i], out[i+1:]...)
		}
	}
	return withCounts(out)
}
