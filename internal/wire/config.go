package wire

import (
	"fmt"
	"math"
	"net"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
)

// ClusterConfig sizes the deployment.
type ClusterConfig struct {
	// Switches lists all switch IDs.
	Switches []uint32
	// Authorities lists the switches hosting authority rules.
	Authorities []uint32
	// Policy is the global rule set.
	Policy []flowspace.Rule
	// Strategy picks the cache-rule scheme.
	Strategy core.CacheStrategy
	// CacheCapacity bounds ingress caches (0 = unlimited).
	CacheCapacity int
	// CacheEviction picks victims for full ingress caches. The default is
	// LRU (earlier builds rejected inserts into a full cache outright);
	// core.EvictCostAware additionally runs the cost-aware scorer and the
	// adaptation loop from internal/cachepolicy.
	CacheEviction core.EvictionChoice
	// TCAMBudget, when >0, bounds each switch's total TCAM occupancy —
	// cache capacity is continuously derived as the budget minus the
	// authority/partition-rule footprint (see switchsim.Config.TCAMBudget).
	TCAMBudget int
	// CacheIdle is the idle timeout authorities stamp onto generated cache
	// rules, in seconds (0 = none); they carry no hard timeout.
	CacheIdle float64
	// CacheAdaptInterval paces the cost-aware adaptation loop (default
	// 250ms; only runs under core.EvictCostAware).
	CacheAdaptInterval time.Duration
	// QueueDepth sizes the delivery-notification channel and, rounded up
	// to a power of two, each per-producer data ring (see ringDepth).
	QueueDepth int
	// Heartbeat is ignored: the heartbeat prober is gone, and BFD is the
	// one liveness detector.
	//
	// Deprecated: set BFD instead. The field stays only so the benchmark
	// harness, which still sets it, compiles.
	Heartbeat HeartbeatConfig
	// BFD tunes the failure detector: session state machines over every
	// control channel, whose timers also set the redirect-ack timeout.
	BFD BFDConfig
	// HA configures replicated controllers: the leader's controller state
	// shipped to every replica's journal, and an election that resumes the
	// controller from the winner's.
	HA HAConfig
	// Overload tunes miss-storm protection.
	Overload OverloadConfig
	// Partition tunes the partitioner.
	Partition core.PartitionConfig
	// Telemetry tunes the flight recorder and the optional HTTP metrics
	// endpoint.
	Telemetry TelemetryConfig

	// pipe makes each control channel's switch and controller ends (tests
	// only; nil is net.Pipe).
	pipe func() (sw, ctrl net.Conn)
}

// newPipe returns the two ends of a new control channel: the switch side
// and the controller side.
func (cfg *ClusterConfig) newPipe() (net.Conn, net.Conn) {
	if cfg.pipe != nil {
		return cfg.pipe()
	}
	return net.Pipe()
}

// fabricBurst caps how many frames a switch pulls from its input rings and
// runs through one classification pass — one TCAM read-lock acquisition,
// one stats update, one downstream handoff per destination — per
// iteration. It also sizes the injection path's commits: InjectBatch
// publishes at most this many frames per tail store.
const fabricBurst = 64

// healthInterval paces the SLO watchdog's registry scrapes.
const healthInterval = time.Second

// ringDepth is the depth of each per-producer SPSC data ring: QueueDepth
// rounded up to a power of two. Every switch has one ring per peer switch
// plus one for injection, so worst-case buffering per switch is
// (peers+1)·ringDepth frames; a ring holds memory only for the pages its
// frames in flight occupy.
func (cfg *ClusterConfig) ringDepth() int { return ceilPow2(cfg.QueueDepth) }

// HeartbeatConfig is the retired heartbeat prober's timers.
//
// Deprecated: ignored; ClusterConfig.Heartbeat says why it is kept.
type HeartbeatConfig struct {
	Interval      time.Duration
	MissThreshold int
}

// BFDConfig tunes the failure detector: per-switch async session state
// machines (internal/bfd) exchanged as proto.BFDControl messages over the
// control channels, in both directions. Detection time is DetectMult ×
// Interval, milliseconds at the defaults. The same timers set how long an
// authority may leave a redirect unanswered (redirectTimeout).
type BFDConfig struct {
	// Interval is the desired transmit interval (default 2ms).
	Interval time.Duration
	// DetectMult is the detection multiplier (default 3).
	DetectMult int
}

func (b *BFDConfig) applyDefaults() {
	if b.Interval <= 0 {
		b.Interval = 2 * time.Millisecond
	}
	if b.DetectMult <= 0 {
		b.DetectMult = 3
	}
}

// DetectTime is the configured detection timeout (Interval × DetectMult).
func (b BFDConfig) DetectTime() time.Duration {
	return time.Duration(b.DetectMult) * b.Interval
}

// minRedirectTimeout floors the redirect-ack timeout: below it, a data
// goroutine descheduled on a loaded host would read as a stalled authority.
const minRedirectTimeout = 300 * time.Millisecond

// redirectTimeout is how long a redirect may stay unanswered by an
// authority switch's data plane before the switch is held dead even though
// its BFD session is Up: twice the detect time, and never under
// minRedirectTimeout.
func (b BFDConfig) redirectTimeout() time.Duration {
	return max(2*b.DetectTime(), minRedirectTimeout)
}

// SlackBFD is failure-detector timing for runs that are not about
// detection speed — differential checks, soaks, most tests: half a second
// to a verdict, far past any scheduler stall a loaded box or the race
// detector produces, so a busy data plane never reads as a dead switch.
// A real kill is still seen at once through the killed flag. The defaults
// stay fast (6 ms).
var SlackBFD = BFDConfig{Interval: 25 * time.Millisecond, DetectMult: 20}

// HAConfig configures controller replication. With Replicas ≥ 2 the
// cluster runs that many controller replicas, each owning a journal that
// holds one sealed state. The leader's journal is its controller's, and
// each state it seals reaches the live followers before the controller
// acts on it. Killing the leader
// deposes its controller; after ElectionDelay the most caught-up live
// follower resumes it from its own journal under the next epoch, which
// fences out what the deposed one left in flight (core.Controller.Resume),
// and the switches' control channels fail over to it — no
// RestoreController call required.
type HAConfig struct {
	// Replicas is the controller replica count (0 or 1 = single
	// controller, the legacy KillController/RestoreController behavior).
	Replicas int
	// Dir roots the replicas' journal directories (default: a temp dir
	// removed on Close). A cluster booted on the Dir of an earlier one runs
	// the configured policy under an epoch past every one that cluster
	// reached.
	Dir string
	// ElectionDelay is how long surviving replicas wait after a leader
	// death before electing (default: the BFD detect time).
	ElectionDelay time.Duration
}

func (h *HAConfig) applyDefaults(bfd BFDConfig) {
	if h.Replicas < 0 {
		h.Replicas = 0
	}
	if h.ElectionDelay <= 0 {
		h.ElectionDelay = bfd.DetectTime()
	}
}

// OverloadConfig tunes wire mode's overload protection: token buckets that
// shed the tail of a miss storm before it collapses an authority switch.
type OverloadConfig struct {
	// RedirectRate bounds how many cache-miss redirects per second each
	// ingress switch may send toward authority switches (0 = unlimited).
	// Excess packets are shed and counted in Drops.RedirectShed.
	RedirectRate float64
	// RedirectBurst is the redirect bucket's burst capacity (default 32
	// when RedirectRate is set).
	RedirectBurst int
	// CacheInstallRate bounds how many cache installs per second each
	// authority switch may push toward ingress switches (0 = unlimited).
	// Suppressed installs are counted in CacheInstallsShed; the packets
	// themselves still forward, so shedding costs extra redirects, not
	// reachability.
	CacheInstallRate float64
	// CacheInstallBurst is the install bucket's burst capacity (default 32
	// when CacheInstallRate is set).
	CacheInstallBurst int
}

func (o *OverloadConfig) applyDefaults() {
	if o.RedirectBurst <= 0 {
		o.RedirectBurst = 32
	}
	if o.CacheInstallBurst <= 0 {
		o.CacheInstallBurst = 32
	}
}

// send backs off between writes to a closed control pipe, which is
// replaced within one BFD interval: retryBaseDelay before the second
// attempt, doubling each further attempt up to retryMaxDelay, with up to
// retryJitter of each delay randomized away to avoid synchronized retry
// storms.
const (
	retryBaseDelay = time.Millisecond
	retryMaxDelay  = 5 * time.Millisecond
	retryJitter    = 0.2
)

// backoff returns the delay to sleep after failed attempt n (n ≥ 1):
// retryBaseDelay·2^(n-1), capped at retryMaxDelay, less up to retryJitter
// of it as rnd draws.
func backoff(attempt int, rnd func() float64) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := retryMaxDelay
	if shift := uint(attempt - 1); shift < 30 {
		if scaled := retryBaseDelay << shift; scaled < retryMaxDelay {
			d = scaled
		}
	}
	return d - time.Duration(float64(d)*retryJitter*rnd())
}

// Validate checks the configuration and fills defaulted fields in place
// (queue depth, detector timers). NewCluster calls it; use it directly to
// surface configuration errors before building anything.
func (cfg *ClusterConfig) Validate() error {
	if len(cfg.Switches) == 0 || len(cfg.Authorities) == 0 {
		return fmt.Errorf("wire: need switches and authorities")
	}
	if len(cfg.Switches) > math.MaxUint16 {
		// A frame names the switch that encapsulated it by 16-bit slot.
		return fmt.Errorf("wire: %d switches, at most %d supported", len(cfg.Switches), math.MaxUint16)
	}
	seen := make(map[uint32]bool, len(cfg.Switches))
	for _, id := range cfg.Switches {
		if seen[id] {
			return fmt.Errorf("wire: duplicate switch %d", id)
		}
		seen[id] = true
	}
	for _, id := range cfg.Authorities {
		if !seen[id] {
			return fmt.Errorf("wire: authority %d not a cluster switch", id)
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	cfg.BFD.applyDefaults()
	cfg.HA.applyDefaults(cfg.BFD)
	cfg.Overload.applyDefaults()
	if depth := cfg.ringDepth(); depth < fabricBurst {
		return fmt.Errorf("wire: queue depth %d gives ring depth %d, below the burst size %d",
			cfg.QueueDepth, depth, fabricBurst)
	}
	if cfg.CacheAdaptInterval <= 0 {
		cfg.CacheAdaptInterval = 250 * time.Millisecond
	}
	return nil
}
