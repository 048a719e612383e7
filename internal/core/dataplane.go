package core

import (
	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/switchsim"
	"difane/internal/tcam"
	"difane/internal/telemetry"
)

// The DIFANE packet decision, made once for every backend: what a switch
// does with a packet its tables classified (IngressStep), an authority
// switch's answer to a redirect (Generation.Answer, AnswerStep), and the
// cache install that answer sends back (Install). A backend brings only the
// transport: the simulator its virtual-time delays and authority queue,
// wire mode its rings, token buckets and shedding.

// Generation is what a deployment's data plane answers from between two
// commits, each of which publishes a new one whole (NextGeneration).
type Generation struct {
	Running
	// Seq counts commits; a redirect carries its parity (Via). Flush is
	// set when the commit empties every ingress cache.
	Seq   uint64
	Flush bool
	// Handlers are the miss handlers, one per partition and replica host.
	Handlers map[HandlerKey]*Authority
	// Prev is the generation before, for the redirects sent under it and
	// answered after the commit (its own Prev is nil).
	Prev *Generation
}

// NextGeneration is the generation a commit of r publishes after prev (nil
// at boot). Each handler times its cache rules out after idle — or the idle
// timeout the cost-aware policy has adapted for the region, so handlers
// rebuilt by an update, rebalancing or recovery keep the adapted value.
func NextGeneration(prev *Generation, r Running, flush bool, strategy CacheStrategy, cache *CacheAdapter, idle float64) *Generation {
	g := &Generation{Running: r, Flush: flush, Handlers: make(map[HandlerKey]*Authority)}
	for i, p := range r.Assignment.Partitions {
		for _, host := range r.Assignment.ReplicasFor(i) {
			auth := NewAuthority(host, p, strategy)
			auth.RegionIndex = i
			auth.CacheIdleTimeout = cache.Idle(i, idle)
			g.Handlers[HandlerKey{host, i}] = auth
		}
	}
	if prev != nil {
		p := *prev
		p.Prev = nil
		g.Seq, g.Prev = prev.Seq+1, &p
	}
	return g
}

// Via is what a redirect sent under g carries (never 0, which marks a packet
// that has not travelled via an authority switch).
func (g *Generation) Via() uint8 { return 1 + uint8(g.Seq&1) }

// Answering returns the generation a redirect carrying via is answered
// from: the one its ingress classified it under, whatever the authority
// switch has moved on to since. A commit that kept the band (a rebalance, a
// recovery, an update that is not consistent) replaced the rules in place,
// and only its own handlers can answer them.
func (g *Generation) Answering(via uint8) *Generation {
	if g.Prev == nil || via == g.Via() || g.Prev.Generation == g.Generation {
		return g
	}
	return g.Prev
}

// Answer is authority switch sw's answer under g to a redirected packet k:
// its authority table, read through v in g's band alone, says which rule,
// and the hit's partition band which handler appends the cache rules to mods
// (Authority.Answer). A hit counts in sw's AuthorityHits. Answer mutates the
// handler, so calls for one switch must not overlap.
func (g *Generation) Answer(sw *switchsim.Switch, v *tcam.View, k *flowspace.Key, size int, now float64, mods []proto.FlowMod) (*Authority, MissResult) {
	entry := v.LookupBand(now, k, size, GenerationMask, g.Generation)
	if entry == nil {
		return nil, MissResult{CacheMods: mods}
	}
	sw.Stats.AuthorityHits.Add(1)
	a := g.Handlers[HandlerKey{sw.ID, AuthorityEntryPartition(entry.ID)}]
	if a == nil {
		return nil, MissResult{CacheMods: mods}
	}
	return a, a.Answer(entry, k, mods)
}

// Step is what a switch does with one packet: with Kind VerdictDelivered it
// sends the packet on toward To — its egress, or with Redirect its authority
// switch — and with any other Kind the packet ends there.
type Step struct {
	Kind     VerdictKind
	Redirect bool
	To       uint32
}

// IngressStep decides a packet its ingress classified: one no table matched
// is unreachable (its partition rule was withdrawn).
func IngressStep(res *switchsim.Result) Step {
	if !res.OK {
		return Step{Kind: VerdictUnreachable}
	}
	return actionStep(res.Rule.Action)
}

// AnswerStep decides a redirected packet its authority switch answered: no
// rule, or one that would redirect it again, is a hole.
func AnswerStep(res *MissResult) Step {
	if !res.OK || res.Rule.Action.Kind == flowspace.ActRedirect {
		return Step{Kind: VerdictHole}
	}
	return actionStep(res.Rule.Action)
}

// actionStep is the deployments' one action→verdict table.
func actionStep(a flowspace.Action) Step {
	switch a.Kind {
	case flowspace.ActForward, flowspace.ActCount:
		return Step{Kind: VerdictDelivered, To: a.Arg}
	case flowspace.ActRedirect:
		return Step{Kind: VerdictDelivered, Redirect: true, To: a.Arg}
	case flowspace.ActDrop:
		return Step{Kind: VerdictPolicyDrop}
	}
	return Step{Kind: VerdictHole} // DIFANE never punts to the controller
}

// Install is the cache rules an authority switch answered redirects with,
// on their way to their ingress: Seq numbers the generation that answered,
// and Trace is the packet's trace ID when one sampled packet's rules travel
// alone (0 otherwise).
type Install struct {
	Seq, Trace uint64
	Mods       []proto.FlowMod
}

// Sent spans a sampled packet's install leaving authority switch from for
// ingress to.
func (in *Install) Sent(p *telemetry.Probe, from, to uint32, flow telemetry.FlowTuple) {
	p.Span(telemetry.Event{Kind: telemetry.EvInstallTriggered, Node: from, Peer: to,
		Table: uint8(proto.TableCache), RuleID: in.Mods[0].Rule.ID, Flow: flow, Trace: in.Trace})
}

// Apply applies in at ingress switch sw, whose data plane answers from run,
// unless another generation answered: its rules are then of a policy the
// ingress no longer follows. It is sw's data plane's, between packets
// (switchsim.Switch.ApplyCacheBatch). A sampled packet's install lands in
// its journey.
func (in *Install) Apply(p *telemetry.Probe, sw *switchsim.Switch, run *Generation, now float64) {
	if in.Seq != run.Seq {
		return
	}
	_ = sw.ApplyCacheBatch(now, in.Mods)
	if in.Trace != 0 {
		p.Span(telemetry.Event{Kind: telemetry.EvInstall, Node: sw.ID,
			Table: uint8(proto.TableCache), RuleID: in.Mods[0].Rule.ID, Trace: in.Trace})
	}
}
