package wire

// frameRing is a bounded single-producer single-consumer ring of dataFrames
// — the burst data plane's queue primitive, replacing per-packet channel
// sends. The producer owns tail, the consumer owns head, and each side
// publishes its cursor with an atomic store after touching the slots, so
// the other side's acquire load orders the slot memory: a commit's frame
// writes happen-before the peek that observes the advanced tail, and the
// consumer's reads and writes of a peeked slot happen-before the reserve
// that reuses it once released. No locks, no failed CAS loops, and whole
// bursts move with one cursor update each.
//
// Neither side copies a frame out of the ring. The producer writes frames
// in place: reserve(k) hands it the slot k past the published tail, and
// commit(k) publishes the first k. Reserved slots belong to the producer
// until then — the consumer stops at tail — so a reservation that is never
// committed is simply written over by the next. The consumer works on
// frames in place too: peekBurst hands it pointers to the committed slots
// from head on, and release(k) gives the first k back. Peeked slots belong
// to the consumer until then — reserve counts them as occupied, since head
// has not moved — so it may rewrite a frame (encapsulate, decapsulate)
// where it lies, and a producer can never write over a frame still being
// read, even when producer and consumer are one goroutine (a switch
// redirecting to itself).
//
// Single-producer discipline in this package: ring in[s] of a node is fed
// only by switch s's data goroutine. The extra injection ring is fed by
// arbitrary caller goroutines, each reserving and committing under
// node.injectMu.

import "sync/atomic"

// ringPad keeps the producer and consumer cursors on separate cache lines
// so commits and releases don't false-share.
type ringPad [64]byte

type frameRing struct {
	buf  []dataFrame
	mask uint64

	_    ringPad
	head atomic.Uint64 // consumer cursor: next slot to release
	_    ringPad
	tail atomic.Uint64 // producer cursor: next slot to publish
}

// newFrameRing builds a ring holding at least depth frames (rounded up to a
// power of two so index math is a mask).
func newFrameRing(depth int) *frameRing {
	n := ceilPow2(depth)
	return &frameRing{buf: make([]dataFrame, n), mask: uint64(n - 1)}
}

// ceilPow2 rounds n up to a power of two (1 for n < 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// reserve returns the free slot k places past the published tail for the
// producer to write, or nil when the ring has no room for it. Producer side
// only.
func (r *frameRing) reserve(k int) *dataFrame {
	tail := r.tail.Load()
	if k >= len(r.buf)-int(tail-r.head.Load()) {
		return nil
	}
	return &r.buf[(tail+uint64(k))&r.mask]
}

// commit publishes the first k reserved slots with one cursor store.
// Producer side only.
func (r *frameRing) commit(k int) { r.tail.Store(r.tail.Load() + uint64(k)) }

// peekBurst fills out with pointers to up to len(out) committed frames,
// oldest first, and returns how many. The frames stay in their slots, the
// consumer's to read and rewrite until it releases them. Consumer side
// only, and only with no frames of this ring peeked and not yet released.
func (r *frameRing) peekBurst(out []*dataFrame) int {
	head := r.head.Load()
	n := min(int(r.tail.Load()-head), len(out))
	for i := 0; i < n; i++ {
		out[i] = &r.buf[(head+uint64(i))&r.mask]
	}
	return n
}

// release hands the k oldest peeked slots back to the producer with one
// cursor store. Consumer side only.
func (r *frameRing) release(k int) { r.head.Store(r.head.Load() + uint64(k)) }

// len returns the current occupancy, peeked frames included. Safe from any
// goroutine; exact only for the producer or consumer themselves.
func (r *frameRing) len() int { return int(r.tail.Load() - r.head.Load()) }
