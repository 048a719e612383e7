package wire

import (
	"sync/atomic"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/packet"
	"difane/internal/telemetry"
)

// Deployment adapts a Cluster to the simulator-facing driving surface
// (difane.Deployment): virtual-time injection timestamps are ignored —
// wire mode runs in real time — and Run becomes "wait until everything
// injected so far has reached a terminal point".
type Deployment struct {
	C *Cluster

	injected atomic.Uint64
}

// NewDeployment builds a cluster and wraps it.
func NewDeployment(cfg ClusterConfig) (*Deployment, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &Deployment{C: c}, nil
}

// Deploy wraps an already-running cluster.
func Deploy(c *Cluster) *Deployment { return &Deployment{C: c} }

// injectDeadline bounds how long InjectPacket retries against transient
// queue backpressure before counting the packet lost.
const injectDeadline = time.Second

// InjectPacket injects one packet now (the virtual timestamp `at` has no
// meaning in real time). Transient backpressure is retried briefly;
// packets toward killed switches or past the deadline are recorded lost.
func (d *Deployment) InjectPacket(at float64, ingress uint32, k flowspace.Key, size int, seq uint64) {
	h := packet.HeaderFromKey(k)
	trace := d.C.TraceID(k, seq)
	// Fast path first: the deadline clock read is paid only under
	// backpressure.
	if d.C.tryInject(ingress, h, size, trace) {
		d.injected.Add(1)
		return
	}
	d.injectRetry(ingress, h, size, trace)
}

// injectRetry is InjectPacket's slow path: retry against transient
// backpressure until the deadline, then record the packet lost.
func (d *Deployment) injectRetry(ingress uint32, h packet.Header, size int, trace uint64) {
	deadline := time.Now().Add(injectDeadline)
	for {
		if d.C.tryInject(ingress, h, size, trace) {
			d.injected.Add(1)
			return
		}
		n, ok := d.C.node(ingress)
		if !ok || n.killed.Load() || d.C.closed.Load() || time.Now().After(deadline) {
			d.lose(ingress, h, trace)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// lose records a packet that could not be injected at ingress as
// unreachable, opening and closing its journey at the rejecting ingress so
// that a sampled packet lost to injection failure still assembles.
func (d *Deployment) lose(ingress uint32, h packet.Header, trace uint64) {
	d.C.traceIngress(ingress, &h, trace)
	d.C.drop(d.C.ext, ingress, core.VerdictUnreachable, 0, &dataFrame{hdr: h, trace: trace})
	d.C.wakeIfQuiet()
	d.injected.Add(1)
}

// injectChunk is how many packets InjectBatch groups at a time, so that
// its index lists fit on the stack.
const injectChunk = 1024

// InjectBatch injects a burst of packets grouped by ingress, allocating
// nothing: each ingress's packets keep their order (none across ingresses
// is observable, each injection ring having a consumer of its own), and
// each ingress takes its injectMu once per chunk. A chunk is grouped by a
// counting sort on switch slot: one pass looks each packet's ingress up
// once and counts per slot, a second places the indices. A packet whose
// ingress names no switch is lost at that lookup; packets that do not fit
// go through injectRetry, with its loss accounting.
func (d *Deployment) InjectBatch(batch []core.PacketIn) {
	c := d.C
	var slot, order, starts [injectChunk]int32
	next := starts[:]
	if len(c.nodes) > len(next) {
		next = make([]int32, len(c.nodes)) // over injectChunk switches: the one allocation
	}
	next = next[:len(c.nodes)]
	for len(batch) > 0 {
		chunk := batch[:min(len(batch), injectChunk)]
		batch = batch[len(chunk):]
		clear(next)
		for i := range chunk {
			p := &chunk[i]
			s := c.index.slot(p.Ingress)
			slot[i] = s
			if s < 0 {
				d.lose(p.Ingress, packet.HeaderFromKey(p.Key), c.TraceID(p.Key, p.Seq))
				continue
			}
			next[s]++
		}
		sum := int32(0)
		for s, k := range next {
			next[s], sum = sum, sum+k
		}
		for i, s := range slot[:len(chunk)] {
			if s >= 0 {
				order[next[s]] = int32(i)
				next[s]++
			}
		}
		// next[s] is now where slot s's run ends, and the next slot's starts.
		lo := int32(0)
		for s, hi := range next {
			if hi > lo {
				d.injectGroup(c.nodes[s], chunk, order[lo:hi])
			}
			lo = hi
		}
	}
}

// injectGroup injects batch[idx...], all entering at n, in order:
// written straight into the injection ring's free slots, every fabricBurst
// of them published with one clock stamp, one tail store and one wakeup,
// so the switch starts on the first burst while the rest are written.
func (d *Deployment) injectGroup(n *node, batch []core.PacketIn, idx []int32) {
	c, ingress := d.C, n.id
	sampling := c.TraceSampleRate() != 0
	sent := 0
	if ring := c.openInjection(n); ring != nil {
		for sent < len(idx) {
			stamp := nowNS()
			k := 0
			for ; k < fabricBurst && sent+k < len(idx); k++ {
				f := ring.reserve(k, &n.injPages)
				if f == nil {
					break
				}
				p := &batch[idx[sent+k]]
				*f = dataFrame{hdr: packet.HeaderFromKey(p.Key), size: uint32(p.Size), injected: stamp}
				if sampling {
					f.trace = c.TraceID(p.Key, p.Seq)
					c.traceIngress(ingress, &f.hdr, f.trace)
				}
			}
			if k == 0 {
				break
			}
			c.commitInjected(n, ring, k)
			sent += k
		}
		n.injectMu.Unlock()
		d.injected.Add(uint64(sent))
	}
	for _, i := range idx[sent:] {
		p := &batch[i]
		d.injectRetry(ingress, packet.HeaderFromKey(p.Key), p.Size, c.TraceID(p.Key, p.Seq))
	}
}

// Run blocks until every packet injected so far has reached a terminal
// point (delivered or dropped) and every cache install those packets
// triggered is applied at its ingress, bounded by horizon seconds of real
// time. It returns the moment that holds (Cluster.awaitQuiescence).
func (d *Deployment) Run(horizon float64) {
	if d.C.awaitQuiescence(d.injected.Load(), time.Duration(horizon*float64(time.Second))) {
		// The accounting identity holds, the rings are empty and every
		// install is applied: this is the quiesce point any open
		// policy-update timeline closes at.
		d.C.Convergence().NoteQuiesce(nowNS(), d.C.counterTotals())
	}
}

// Measurements returns a consistent snapshot of the run's statistics.
func (d *Deployment) Measurements() *core.Measurements { return d.C.Measurements() }

// Telemetry returns one scrape of the cluster's metric registry plus
// flight-recorder accounting.
func (d *Deployment) Telemetry() *telemetry.Snapshot { return d.C.Telemetry() }

// Close shuts the cluster down.
func (d *Deployment) Close() error { return d.C.Close() }
