package wire

// frameRing is a bounded single-producer single-consumer ring of dataFrames
// — the burst data plane's queue primitive, replacing per-packet channel
// sends. The producer owns tail, the consumer owns head, and each side
// publishes its cursor with an atomic store after touching the slots, so
// the other side's acquire load orders the slot memory: a commit's frame
// writes happen-before the pop that observes the advanced tail, and a pop's
// frame reads happen-before the reserve that reuses the freed slot. No
// locks, no failed CAS loops, and whole bursts move with one cursor update
// each.
//
// The producer writes frames in place: reserve(k) hands it the slot k past
// the published tail, and commit(k) publishes the first k. Reserved slots
// belong to the producer until then — the consumer stops at tail — so a
// reservation that is never committed is simply written over by the next.
//
// Single-producer discipline in this package: ring in[s] of a node is fed
// only by switch s's data goroutine. The extra injection ring is fed by
// arbitrary caller goroutines, each reserving and committing under
// node.injectMu.

import "sync/atomic"

// ringPad keeps the producer and consumer cursors on separate cache lines
// so pushes and pops don't false-share.
type ringPad [64]byte

type frameRing struct {
	buf  []dataFrame
	mask uint64

	_    ringPad
	head atomic.Uint64 // consumer cursor: next slot to pop
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

// popBurst copies up to len(out) frames into out, returning how many.
// Consumer side only.
func (r *frameRing) popBurst(out []dataFrame) int {
	head := r.head.Load()
	n := int(r.tail.Load() - head)
	if n == 0 {
		return 0
	}
	if n > len(out) {
		n = len(out)
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[(head+uint64(i))&r.mask]
	}
	r.head.Store(head + uint64(n))
	return n
}

// len returns the current occupancy. Safe from any goroutine; exact only
// for the producer or consumer themselves.
func (r *frameRing) len() int { return int(r.tail.Load() - r.head.Load()) }
