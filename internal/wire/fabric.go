package wire

// The batched TCP data fabric: an optional carrier (cfg.Fabric.UseTCP)
// that moves inter-switch data frames over real loopback-TCP connections
// instead of direct ring handoff. Each (src, dst) switch pair lazily dials
// one connection; the sender appends a whole burst of length-prefixed frame
// records to a batch buffer under one lock, and the buffer flushes when it
// reaches FlushBytes or when the FlushInterval timer fires, so a redirect
// burst or a tunneled delivery stream costs one syscall per batch instead
// of one per frame. The receive side parses records back into dataFrames —
// allocation-free via DecodeWireEncap — and feeds the destination switch's
// per-producer ring in bursts, with the same backpressure accounting as the
// direct path.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"difane/internal/packet"
)

// fabricRecHdr is the per-record header: payload length (4B), injection
// wall-clock nanos (8B), packet size (4B), detour flag (1B), trace ID (8B).
const fabricRecHdr = 25

// tcpFabric is the cluster-wide data fabric: one loopback listener, lazily
// dialed per-pair connections, and an in-flight frame count that keeps the
// cluster's drain logic honest while frames sit in socket buffers.
type tcpFabric struct {
	c    *Cluster
	cfg  FabricConfig
	ln   net.Listener
	addr string

	mu    sync.Mutex
	conns map[uint64]*fabricConn

	// inflight counts frames accepted by send() and not yet enqueued at
	// (or dropped by) the receive side. drained() treats a non-zero count
	// like a non-empty data queue.
	inflight atomic.Int64

	done   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

// fabricConn is one directed src→dst connection with its batch buffer and
// dedicated writer goroutine. Batching is self-adaptive: the first frame
// into an empty buffer kicks the writer, and frames arriving while a write
// is in flight accumulate into the next batch — light load gets prompt
// single-frame writes, heavy load gets large coalesced ones, and no frame
// waits on a timer in the common case. The FlushInterval ticker is only a
// safety net against a lost wakeup.
type fabricConn struct {
	f    *tcpFabric
	src  *node
	conn net.Conn

	// mu guards buf/recs/err; the writer swaps the buffer out under it and
	// writes outside it, so senders never block on the socket.
	mu    sync.Mutex
	buf   []byte
	spare []byte
	recs  int
	err   error

	// kick wakes the writer; capacity 1 coalesces bursts of wakeups.
	kick chan struct{}
}

func newTCPFabric(c *Cluster, cfg FabricConfig) (*tcpFabric, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wire: data fabric listen: %w", err)
	}
	f := &tcpFabric{
		c:     c,
		cfg:   cfg,
		ln:    ln,
		addr:  ln.Addr().String(),
		conns: make(map[uint64]*fabricConn),
		done:  make(chan struct{}),
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

func (f *tcpFabric) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.wg.Add(1)
		go f.serve(conn)
	}
}

// sendBurst batches a whole burst toward dst under one buffer lock and one
// writer wakeup. The packets are encoded straight into the connection's
// batch buffer — no per-frame allocation, no per-frame syscall, no
// per-frame lock.
func (f *tcpFabric) sendBurst(src, dst *node, frames []dataFrame) {
	fc, err := f.conn(src, dst)
	if err == nil && fc.enqueueBurst(frames) {
		return
	}
	for range frames {
		f.c.drop(src.stats, dropUnreachable)
	}
}

// conn returns (dialing if needed) the src→dst connection.
func (f *tcpFabric) conn(src, dst *node) (*fabricConn, error) {
	key := uint64(src.id)<<32 | uint64(dst.id)
	f.mu.Lock()
	defer f.mu.Unlock()
	if fc, ok := f.conns[key]; ok {
		return fc, nil
	}
	if f.closed.Load() {
		return nil, fmt.Errorf("wire: data fabric closed")
	}
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		return nil, err
	}
	var hello [8]byte
	binary.BigEndian.PutUint32(hello[0:4], src.id)
	binary.BigEndian.PutUint32(hello[4:8], dst.id)
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	fc := &fabricConn{f: f, src: src, conn: conn, kick: make(chan struct{}, 1)}
	f.conns[key] = fc
	f.wg.Add(1)
	go fc.writeLoop()
	return fc, nil
}

// enqueueBurst appends the burst's frame records to the batch and wakes the
// writer once. Returns false if the connection is broken.
func (fc *fabricConn) enqueueBurst(frames []dataFrame) bool {
	fc.mu.Lock()
	if fc.err != nil {
		fc.mu.Unlock()
		return false
	}
	for i := range frames {
		frame := &frames[i]
		at := len(fc.buf)
		var h [fabricRecHdr]byte
		// The inject stamp is monotonic nanos on the cluster's time base;
		// sender and receiver share a process, so it round-trips exactly.
		binary.BigEndian.PutUint64(h[4:12], uint64(frame.injected))
		binary.BigEndian.PutUint32(h[12:16], uint32(frame.pkt.Size))
		if frame.detour {
			h[16] = 1
		}
		binary.BigEndian.PutUint64(h[17:25], frame.trace)
		fc.buf = append(fc.buf, h[:]...)
		var e *packet.Encap
		if frame.hasEncap {
			e = &frame.encap
		}
		fc.buf = frame.pkt.AppendWireEncap(fc.buf, e)
		binary.BigEndian.PutUint32(fc.buf[at:at+4], uint32(len(fc.buf)-at-fabricRecHdr))
	}
	fc.recs += len(frames)
	fc.f.inflight.Add(int64(len(frames)))
	fc.mu.Unlock()
	select {
	case fc.kick <- struct{}{}:
	default:
	}
	return true
}

// writeLoop is the connection's writer: woken by the first frame of a
// batch, it swaps the buffer out and writes it in one syscall, looping
// while senders keep it busy. The FlushInterval ticker is a safety net,
// and FlushBytes only sizes the retained buffer (larger batches shrink
// back so a burst doesn't pin its high-water mark forever).
func (fc *fabricConn) writeLoop() {
	defer fc.f.wg.Done()
	t := time.NewTicker(fc.f.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-fc.f.done:
			fc.flush()
			return
		case <-fc.kick:
			fc.flush()
		case <-t.C:
			fc.flush()
		}
	}
}

// flush swaps the batch out under the lock, writes it outside the lock,
// and repeats until the buffer stays empty. A failed write kills the
// connection: its batched frames are accounted as unreachable so the
// accounting identity (injected = delivered + drops) holds.
func (fc *fabricConn) flush() {
	for {
		fc.mu.Lock()
		if fc.err != nil || len(fc.buf) == 0 {
			fc.mu.Unlock()
			return
		}
		out, recs := fc.buf, fc.recs
		if fc.spare == nil || cap(fc.spare) > fc.f.cfg.FlushBytes {
			fc.spare = make([]byte, 0, fc.f.cfg.FlushBytes)
		}
		fc.buf, fc.spare = fc.spare[:0], nil
		fc.recs = 0
		fc.mu.Unlock()

		_, err := fc.conn.Write(out)

		fc.mu.Lock()
		if cap(out) <= fc.f.cfg.FlushBytes {
			fc.spare = out[:0]
		}
		if err != nil && fc.err == nil {
			fc.err = err
			// Frames already batched (recs just written, plus anything
			// senders added meanwhile) are lost.
			recs += fc.recs
			fc.buf = fc.buf[:0]
			fc.recs = 0
			fc.f.inflight.Add(int64(-recs))
			for i := 0; i < recs; i++ {
				fc.f.c.drop(fc.src.stats, dropUnreachable)
			}
		}
		fc.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// serve is the receive side of one connection: read the hello naming the
// pair, then parse each record into a dataFrame — this is the network
// boundary where bytes become a parsed packet again, allocation-free via
// DecodeWireEncap — and feed the destination switch's per-producer ring in
// bursts: a burst flushes when it fills or when the reader is about to
// block, so back-to-back records on the socket become one ring push and one
// wakeup. This goroutine is the sole producer of dst.in[src.slot] (fabric
// mode never pushes peer rings directly), preserving the SPSC discipline.
func (f *tcpFabric) serve(conn net.Conn) {
	defer f.wg.Done()
	defer conn.Close()
	var hello [8]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	src := f.c.switches[binary.BigEndian.Uint32(hello[0:4])]
	dst := f.c.switches[binary.BigEndian.Uint32(hello[4:8])]
	if src == nil || dst == nil {
		return
	}
	ring := dst.ring(src.slot)
	br := bufio.NewReaderSize(conn, 64<<10)
	burst := make([]dataFrame, 0, fabricBurst)
	var rec [fabricRecHdr]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			f.deliverBurst(src, dst, ring, burst)
			return
		}
		plen := int(binary.BigEndian.Uint32(rec[0:4]))
		if cap(payload) < plen {
			payload = make([]byte, plen)
		} else {
			payload = payload[:plen]
		}
		if _, err := io.ReadFull(br, payload); err != nil {
			f.deliverBurst(src, dst, ring, burst)
			return
		}
		frame := dataFrame{
			injected: int64(binary.BigEndian.Uint64(rec[4:12])),
			detour:   rec[16] == 1,
			trace:    binary.BigEndian.Uint64(rec[17:25]),
		}
		_, hasEncap, decErr := frame.pkt.DecodeWireEncap(payload, &frame.encap)
		frame.hasEncap = hasEncap
		frame.pkt.Size = int(binary.BigEndian.Uint32(rec[12:16]))
		if decErr != nil {
			f.c.drop(src.stats, dropUnreachable)
			f.inflight.Add(-1)
			continue
		}
		burst = append(burst, frame)
		if len(burst) == cap(burst) || br.Buffered() < fabricRecHdr {
			f.deliverBurst(src, dst, ring, burst)
			burst = burst[:0]
		}
	}
}

// deliverBurst pushes a received burst onto the destination's ring with one
// push and one wakeup, with the same overflow accounting as direct handoff.
func (f *tcpFabric) deliverBurst(src, dst *node, ring *frameRing, burst []dataFrame) {
	if len(burst) == 0 {
		return
	}
	if dst.killed.Load() {
		// Same reasoning as the direct path: a killed switch's rings would
		// swallow the frames forever.
		for range burst {
			f.c.drop(src.stats, dropUnreachable)
		}
	} else {
		pushed := ring.pushBurst(burst)
		if pushed > 0 {
			dst.noteQueueDepth(int64(ring.len()))
			dst.wake()
		}
		for i := pushed; i < len(burst); i++ {
			f.c.drop(src.stats, dropQueue)
		}
	}
	f.inflight.Add(int64(-len(burst)))
}

// pending returns frames in flight inside the fabric (batched or in socket
// buffers, not yet enqueued at the destination).
func (f *tcpFabric) pending() int64 { return f.inflight.Load() }

// close tears the fabric down: final flushes fire, the listener and every
// connection close, and all fabric goroutines exit.
func (f *tcpFabric) close() {
	if !f.closed.CompareAndSwap(false, true) {
		return
	}
	close(f.done)
	f.ln.Close()
	f.mu.Lock()
	conns := make([]*fabricConn, 0, len(f.conns))
	for _, fc := range f.conns {
		conns = append(conns, fc)
	}
	f.mu.Unlock()
	// Give each connection a final flush before closing the sockets out
	// from under the readers (the writers also flush on done; flush is
	// idempotent).
	for _, fc := range conns {
		fc.flush()
	}
	// Brief grace so receive sides drain what was just flushed.
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) && f.inflight.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	for _, fc := range conns {
		fc.conn.Close()
	}
	f.wg.Wait()
}
