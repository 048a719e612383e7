package scencheck

import (
	"fmt"
	"strings"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/oracle"
)

// Mode names of the three deployments.
const (
	ModeSim      = "sim"
	ModeBaseline = "baseline"
	ModeWire     = "wire"
)

// AllModes lists every deployment the checker can drive.
var AllModes = []string{ModeSim, ModeBaseline, ModeWire}

// Options tunes a check run.
type Options struct {
	// Modes selects which deployments to replay (default: all three).
	Modes []string
	// MutatePolicy, when set, transforms every policy handed to the
	// deployments — the oracle still sees the original. Tests use it to
	// inject deliberate bugs (e.g. priority inversion) and assert the
	// harness catches them.
	MutatePolicy func([]flowspace.Rule) []flowspace.Rule
}

func (o Options) modes() []string {
	if len(o.Modes) == 0 {
		return AllModes
	}
	return o.Modes
}

func (o Options) backendPolicy(policy []flowspace.Rule) []flowspace.Rule {
	if o.MutatePolicy == nil {
		return policy
	}
	return o.MutatePolicy(append([]flowspace.Rule(nil), policy...))
}

// Failure is one invariant violation found during a replay.
type Failure struct {
	Mode string
	// Step indexes Scenario.Steps (-1 for scenario-level audits).
	Step int
	// Invariant names what broke: "oracle", "accounting", "epoch",
	// "cache-soundness", "cache-overlap", "convergence", or "deploy".
	Invariant string
	Msg       string
}

func (f Failure) String() string {
	at := "end"
	if f.Step >= 0 {
		at = fmt.Sprintf("step %d", f.Step)
	}
	return fmt.Sprintf("[%s] %s @ %s: %s", f.Mode, f.Invariant, at, f.Msg)
}

// Totals is the terminal-outcome accounting of one run — the six ways a
// packet can end, per the accounting identity the soak audits too.
type Totals struct {
	Delivered, PolicyDrops, Holes, QueueDrops, Shed, Unreachable uint64
}

// Sum is the total number of accounted packets.
func (t Totals) Sum() uint64 {
	return t.Delivered + t.PolicyDrops + t.Holes + t.QueueDrops + t.Shed + t.Unreachable
}

// Sub is the outcomes between two readings of one run.
func (t Totals) Sub(o Totals) Totals {
	return Totals{
		Delivered:   t.Delivered - o.Delivered,
		PolicyDrops: t.PolicyDrops - o.PolicyDrops,
		Holes:       t.Holes - o.Holes,
		QueueDrops:  t.QueueDrops - o.QueueDrops,
		Shed:        t.Shed - o.Shed,
		Unreachable: t.Unreachable - o.Unreachable,
	}
}

// TotalsOf reads the terminal outcomes out of a run's measurements.
func TotalsOf(m *core.Measurements) Totals {
	return Totals{
		Delivered:   m.Delivered,
		PolicyDrops: m.Drops.Policy,
		Holes:       m.Drops.Hole,
		QueueDrops:  m.Drops.AuthorityQueue,
		Shed:        m.Drops.RedirectShed,
		Unreachable: m.Drops.Unreachable,
	}
}

// TraceEntry is one packet's observed outcome, recorded for determinism
// comparisons (same seed twice must give identical traces).
type TraceEntry struct {
	Step   int
	Kind   core.VerdictKind
	Egress uint32
}

// Result is what Check found.
type Result struct {
	Scenario Scenario
	Failures []Failure
	// PacketsChecked counts packet verdicts compared (summed over modes).
	PacketsChecked int
	// Finals holds each replayed mode's terminal accounting.
	Finals map[string]Totals
	// Traces holds each mode's per-packet outcomes. Wire-mode entries are
	// behaviourally but not temporally deterministic (detours depend on
	// real-time cache races), so determinism tests compare sim/baseline.
	Traces map[string][]TraceEntry
	// SimMeasurements is the simulator's full final Measurements (virtual
	// time — bit-for-bit reproducible for a fixed seed).
	SimMeasurements *core.Measurements
}

// Failed reports whether any invariant broke.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

// Report renders a human-readable failure report with repro commands.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scencheck: seed %d: %d failure(s) over %d packet checks\n",
		r.Scenario.Seed, len(r.Failures), r.PacketsChecked)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	fmt.Fprintf(&b, "reproduce:\n")
	fmt.Fprintf(&b, "  go test ./internal/scencheck -run TestDifferential -seed %d\n", r.Scenario.Seed)
	fmt.Fprintf(&b, "  difanectl check -seed %d -steps %d\n", r.Scenario.Seed, r.Scenario.Packets())
	return b.String()
}

// CheckSeed generates the scenario for a seed and checks it.
func CheckSeed(seed int64, cfg Config, opt Options) *Result {
	return Check(Generate(seed, cfg), opt)
}

// Check replays the scenario through every selected deployment and
// verifies, per packet, that the observed verdict matches the oracle's,
// and globally that the accounting identity holds, controller epochs only
// ever rise, cached rules stay inside some authority rule's clipped
// region, and (sim) the converged tables equal a fresh controller's
// computed assignment.
func Check(sc Scenario, opt Options) *Result {
	sc = normalize(sc)
	res := &Result{
		Scenario: sc,
		Finals:   make(map[string]Totals),
		Traces:   make(map[string][]TraceEntry),
	}
	for _, mode := range opt.modes() {
		replayMode(sc, mode, opt, res)
	}
	return res
}

// normalize drops steps the scenario state machine cannot honor (an update
// while the controller is down, healing a live switch, a second concurrent
// kill). Generated scenarios are already normal; shrinking produces
// arbitrary sublists, and normalization keeps every sublist replayable
// with identical semantics across the oracle and all deployments.
func normalize(sc Scenario) Scenario {
	out := sc
	out.Steps = nil
	ctlDown := false
	dead := int64(-1)
	for _, st := range sc.Steps {
		switch st.Kind {
		case StepUpdatePolicy, StepKillSwitch:
			if ctlDown || (st.Kind == StepKillSwitch && dead >= 0) {
				continue
			}
			if st.Kind == StepKillSwitch {
				dead = int64(st.Switch)
			}
		case StepHealSwitch:
			if ctlDown || dead != int64(st.Switch) {
				continue
			}
			dead = -1
		case StepKillController:
			if ctlDown {
				continue
			}
			ctlDown = true
		case StepRestoreController:
			if !ctlDown {
				continue
			}
			ctlDown = false
		}
		out.Steps = append(out.Steps, st)
	}
	if ctlDown {
		out.Steps = append(out.Steps, Step{Kind: StepRestoreController})
	}
	if dead >= 0 {
		out.Steps = append(out.Steps, Step{Kind: StepHealSwitch, Switch: uint32(dead)})
	}
	return out
}

// observed is what a backend saw happen to one injected packet.
type observed struct {
	kind      core.VerdictKind
	egress    uint32
	hasEgress bool
	// accounted is how many terminal counters moved — must be exactly 1
	// (the per-packet form of the accounting identity).
	accounted uint64
}

// backend replays scenario steps against one deployment.
type backend interface {
	// packet injects one packet, runs to quiescence, and reports the
	// observed terminal outcome.
	packet(st Step) (observed, error)
	update(policy []flowspace.Rule) error
	killSwitch(id uint32) error
	healSwitch(id uint32) error
	killController() error
	// restoreController restarts the controller and enforces the epoch
	// invariant internally (it has the pre-crash epoch).
	restoreController() error
	// audit runs the cache invariants, after every step, and with final
	// the scenario-end ones too; each message is a failure.
	audit(final bool) []string
	// totals is the accumulated terminal accounting (across redeploys).
	totals() Totals
	// injected is how many packets this backend was asked to carry.
	injected() uint64
	close()
}

// killSemantics says how a mode's expected-verdict dead set evolves.
type killSemantics int

const (
	killsIgnored   killSemantics = iota // baseline: no fault hooks
	killsHealable                       // sim: heal revives
	killsPermanent                      // wire: crash-only
)

func newBackend(mode string, sc Scenario, opt Options) (backend, killSemantics, error) {
	switch mode {
	case ModeSim:
		b, err := newSimBackend(sc, opt)
		return b, killsHealable, err
	case ModeBaseline:
		b, err := newBaselineBackend(sc, opt)
		return b, killsIgnored, err
	case ModeWire:
		b, err := newWireBackend(sc, opt)
		return b, killsPermanent, err
	default:
		return nil, killsIgnored, fmt.Errorf("scencheck: unknown mode %q", mode)
	}
}

func replayMode(sc Scenario, mode string, opt Options, res *Result) {
	fail := func(step int, invariant, format string, args ...any) {
		res.Failures = append(res.Failures, Failure{
			Mode: mode, Step: step, Invariant: invariant,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	b, kills, err := newBackend(mode, sc, opt)
	if err != nil {
		fail(-1, "deploy", "backend construction: %v", err)
		return
	}
	defer b.close()

	// An audit message is a failure the first time it reads; a bad cache
	// entry stays until evicted, and names the step that left it.
	reported := make(map[string]bool)
	audit := func(step int, final bool) {
		for _, msg := range b.audit(final) {
			if !reported[msg] {
				reported[msg] = true
				fail(step, auditInvariant(msg), "%s", msg)
			}
		}
	}
	oraclePolicy := sc.Policy
	dead := make(map[uint32]bool)
	for i, st := range sc.Steps {
		switch st.Kind {
		case StepPacket:
			before := b.totals()
			obs, err := b.packet(st)
			if err != nil {
				fail(i, "deploy", "packet: %v", err)
				break
			}
			res.PacketsChecked++
			res.Traces[mode] = append(res.Traces[mode], TraceEntry{Step: i, Kind: obs.kind, Egress: obs.egress})
			if obs.accounted != 1 {
				fail(i, "accounting", "packet moved %d terminal counters, want exactly 1 (delta %+v)",
					obs.accounted, b.totals().Sub(before))
				break
			}
			exp := expectedVerdict(oraclePolicy, st, dead)
			if msg := verdictMismatch(exp, obs); msg != "" {
				fail(i, "oracle", "key %v ingress %d: %s (oracle: %s)",
					st.Key, st.Ingress, msg, exp)
			}
		case StepUpdatePolicy:
			oraclePolicy = st.Policy
			if err := b.update(opt.backendPolicy(st.Policy)); err != nil {
				fail(i, "deploy", "policy update: %v", err)
			}
		case StepKillSwitch:
			if err := b.killSwitch(st.Switch); err != nil {
				fail(i, "deploy", "kill switch %d: %v", st.Switch, err)
			}
			if kills != killsIgnored {
				dead[st.Switch] = true
			}
		case StepHealSwitch:
			if err := b.healSwitch(st.Switch); err != nil {
				fail(i, "deploy", "heal switch %d: %v", st.Switch, err)
			}
			if kills == killsHealable {
				delete(dead, st.Switch)
			}
		case StepKillController:
			if err := b.killController(); err != nil {
				fail(i, "deploy", "kill controller: %v", err)
			}
		case StepRestoreController:
			if err := b.restoreController(); err != nil {
				fail(i, "epoch", "restore controller: %v", err)
			}
		}
		audit(i, false)
	}
	audit(-1, true)
	tot := b.totals()
	res.Finals[mode] = tot
	if inj := b.injected(); tot.Sum() != inj {
		fail(-1, "accounting", "identity: injected %d but accounted %d (%+v)", inj, tot.Sum(), tot)
	}
	if sb, ok := b.(*simBackend); ok {
		res.SimMeasurements = sb.n.M.Snapshot()
	}
}

// auditInvariant recovers the invariant tag an audit message was emitted
// under (backends prefix messages with "tag: ").
func auditInvariant(msg string) string {
	if i := strings.Index(msg, ":"); i > 0 {
		switch tag := msg[:i]; tag {
		case "cache-soundness", "cache-overlap", "convergence", "accounting", "epoch":
			return tag
		}
	}
	return "audit"
}

// expectation is the oracle's prediction adjusted for dead switches.
type expectation struct {
	loss   bool
	v      oracle.Verdict
	reason string
}

func (e expectation) String() string {
	if e.loss {
		return "loss (" + e.reason + ")"
	}
	return e.v.String()
}

// expectedVerdict combines the pure policy oracle with the mode's current
// dead set: packets entering or exiting at a dead switch are expected
// losses; everything else must follow the policy exactly.
func expectedVerdict(policy []flowspace.Rule, st Step, dead map[uint32]bool) expectation {
	if dead[st.Ingress] {
		return expectation{loss: true, reason: fmt.Sprintf("ingress %d dead", st.Ingress)}
	}
	v := oracle.Evaluate(policy, st.Key)
	if v.Kind == oracle.Deliver && dead[v.Egress] {
		return expectation{loss: true, reason: fmt.Sprintf("egress %d dead", v.Egress)}
	}
	return expectation{v: v}
}

// verdictMismatch compares an expectation with an observation, returning
// "" on a match.
func verdictMismatch(exp expectation, obs observed) string {
	if exp.loss {
		if obs.kind == core.VerdictUnreachable {
			return ""
		}
		return fmt.Sprintf("observed %s, want unreachable loss", obs.kind)
	}
	switch exp.v.Kind {
	case oracle.Deliver:
		if obs.kind != core.VerdictDelivered {
			return fmt.Sprintf("observed %s, want delivery to %d", obs.kind, exp.v.Egress)
		}
		if obs.hasEgress && obs.egress != exp.v.Egress {
			return fmt.Sprintf("delivered to %d, want %d", obs.egress, exp.v.Egress)
		}
	case oracle.Drop:
		if obs.kind != core.VerdictPolicyDrop {
			return fmt.Sprintf("observed %s, want policy drop", obs.kind)
		}
	case oracle.Hole:
		// A policy hole may surface as a hole drop or — when the hole
		// region has no partition rule at all — as unreachable. Both are
		// "the policy said nothing"; neither delivers nor policy-drops.
		if obs.kind != core.VerdictHole && obs.kind != core.VerdictUnreachable {
			return fmt.Sprintf("observed %s, want hole", obs.kind)
		}
	}
	return ""
}
