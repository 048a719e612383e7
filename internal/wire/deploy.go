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
		n, ok := d.C.switches[ingress]
		if !ok || n.killed.Load() || d.C.closed.Load() || time.Now().After(deadline) {
			d.C.drop(d.C.ext, dropUnreachable)
			// Open and close the journey at the rejecting ingress, so a
			// sampled packet lost to injection failure still assembles.
			d.C.traceIngress(ingress, &h, trace)
			d.C.traceVerdict(ingress, telemetry.VUnreachable, 0, &h, 0, trace)
			d.injected.Add(1)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// InjectBatch injects a burst of packets. Runs of consecutive packets
// sharing an ingress become one ring push under one lock with one clock
// read and one wakeup; the frames are staged in a pooled slab, so the
// steady-state batch path allocates nothing. Packets that do not fit
// (ring backpressure, killed or unknown ingress) fall back to the
// per-packet retry path with its usual loss accounting.
func (d *Deployment) InjectBatch(batch []core.PacketIn) {
	c := d.C
	slab := c.slabs.Get().(*[]dataFrame)
	frames := (*slab)[:0]
	sampling := c.TraceSampleRate() != 0
	for i := 0; i < len(batch); {
		ingress := batch[i].Ingress
		stamp := nowNS()
		frames = frames[:0]
		j := i
		for j < len(batch) && batch[j].Ingress == ingress && len(frames) < cap(frames) {
			f := dataFrame{
				pkt: packet.Packet{
					Header: packet.HeaderFromKey(batch[j].Key),
					Size:   batch[j].Size,
				},
				injected: stamp,
			}
			if sampling {
				f.trace = c.TraceID(batch[j].Key, batch[j].Seq)
			}
			frames = append(frames, f)
			j++
		}
		pushed := c.injectBurst(ingress, frames)
		d.injected.Add(uint64(pushed))
		for k := i + pushed; k < j; k++ {
			d.injectRetry(ingress, packet.HeaderFromKey(batch[k].Key), batch[k].Size,
				frames[k-i].trace)
		}
		i = j
	}
	*slab = frames[:0]
	c.slabs.Put(slab)
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
