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
// Slots live in pages of pageFrames frames, held only while frames occupy
// them. Only the producer writes the page table: entering a page, it moves
// the pages wholly behind head to its free list, ordered after the
// consumer's last use by that head load as a slot is, and installs one.
// The table has twice the entries the depth needs, so an entry being
// written is never one being read.
//
// Single-producer discipline in this package: ring in[s] of a node is fed
// only by switch s's data goroutine. The extra injection ring is fed by
// arbitrary caller goroutines, each reserving and committing under
// node.injectMu.

import "sync/atomic"

const pageShift, pageFrames = 8, 1 << 8 // a ring page: 256 frames, 16 KiB

type framePage [pageFrames]dataFrame

// ringPad keeps the producer and consumer cursors on separate cache lines
// so commits and releases don't false-share.
type ringPad [64]byte

type frameRing struct {
	pages []*framePage // page table; written by the producer only
	pmask uint64
	size  int // capacity in frames

	_    ringPad
	head atomic.Uint64 // consumer cursor: next slot to release
	_    ringPad
	tail atomic.Uint64 // producer cursor: next slot to publish

	// The producer's own: its window (span free slots from base, in page
	// wpage), the next page to reclaim, and the pages it has.
	base, span uint64
	wpage      *framePage
	reclaimed  uint64
	free       []*framePage // LIFO
}

// newFrameRing builds a ring holding at least depth frames (rounded up to a
// power of two so index math is a mask). It holds no page yet.
func newFrameRing(depth int) *frameRing {
	n := ceilPow2(depth)
	t := max(2, 2*n/pageFrames)
	return &frameRing{pages: make([]*framePage, t), pmask: uint64(t - 1), size: n}
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
	p := r.tail.Load() + uint64(k)
	if p-r.base >= r.span {
		return r.reserveSlow(p)
	}
	return &r.wpage[p%pageFrames]
}

// reserveSlow is reserve outside the producer's window: with head loaded
// afresh it reclaims pages, gives p's its page, and moves the window there.
func (r *frameRing) reserveSlow(p uint64) *dataFrame {
	head := r.head.Load()
	if p-head >= uint64(r.size) {
		return nil
	}
	for ; r.reclaimed < head>>pageShift; r.reclaimed++ {
		e := &r.pages[r.reclaimed&r.pmask]
		r.free = append(r.free, *e)
		*e = nil
	}
	e := &r.pages[(p>>pageShift)&r.pmask]
	if n := len(r.free); *e == nil && n > 0 {
		*e, r.free = r.free[n-1], r.free[:n-1]
	} else if *e == nil {
		*e = new(framePage)
	}
	r.wpage, r.base = *e, p&^(pageFrames-1)
	r.span = min(pageFrames, head+uint64(r.size)-r.base)
	return &r.wpage[p%pageFrames]
}

// commit publishes the first k reserved slots with one cursor store.
// Producer side only.
func (r *frameRing) commit(k int) { r.tail.Store(r.tail.Load() + uint64(k)) }

// peekBurst fills out with pointers to up to len(out) committed frames,
// oldest first, and returns how many, a run per page. The frames stay in
// their slots, the consumer's to read and rewrite until it releases them.
// Consumer side only, and only with no frames of this ring peeked and not
// yet released.
func (r *frameRing) peekBurst(out []*dataFrame) int {
	head := r.head.Load()
	n := min(int(r.tail.Load()-head), len(out))
	for i := 0; i < n; {
		p := head + uint64(i)
		page := r.pages[(p>>pageShift)&r.pmask][p%pageFrames:]
		run := out[i:min(n, i+len(page))]
		for j := range run {
			run[j] = &page[j]
		}
		i += len(run)
	}
	return n
}

// release hands the k oldest peeked slots back to the producer with one
// cursor store; the producer reclaims the pages it empties. Consumer side
// only.
func (r *frameRing) release(k int) { r.head.Store(r.head.Load() + uint64(k)) }

// len returns the current occupancy, peeked frames included. Safe from any
// goroutine; exact only for the producer or consumer themselves.
func (r *frameRing) len() int { return int(r.tail.Load() - r.head.Load()) }
