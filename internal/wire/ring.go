package wire

// frameRing is a bounded single-producer single-consumer ring of dataFrames,
// the burst data plane's queue. The producer owns tail, the consumer head,
// and each publishes its cursor with an atomic store after touching the
// slots, so the other side's load orders the slot memory: a commit's frame
// writes happen-before the peek that sees the new tail, and the consumer's
// use of a slot happen-before the reserve that reuses it once released.
// Whole bursts move with one cursor update each, and no frame is copied
// out. reserve(k) hands the producer the slot k past tail to write in
// place, and commit(k) publishes the first k; a reservation never
// committed is written over by the next. peekBurst lends the consumer the
// committed slots from head on, to read and rewrite in place (encapsulate,
// decapsulate), and release(k) gives back the first k. reserve counts
// peeked slots as occupied, so no producer writes over a frame being read,
// even one that is its own consumer (a switch redirecting to itself).
//
// Slots live in pages of pageFrames frames, held only while frames occupy
// them. The producer installs a page from its pageStash at the first
// reservation in it, and release hands each page head passes to the
// consumer's stash before its head store, which orders that table write
// before the producer's reuse of the entry. The table has twice the entries
// the depth needs, so neither side writes an entry the other reads. A ring
// still empty when its consumer parks gives back the page under head too,
// through a lease in the tail word's low bits that the producer holds from
// its first reserve to its commit: idle, finding head == tail mid-page and
// no lease, swaps in revoked and takes the page, and the producer's next
// lease sees that, installs a fresh page and leaves its window.
//
// Single-producer discipline in this package: ring in[s] of a node is fed
// only by switch s's data goroutine. The extra injection ring is fed by
// arbitrary caller goroutines, each reserving and committing under
// node.injectMu.

import (
	"sync"
	"sync/atomic"
)

const pageShift, pageFrames = 8, 1 << 8 // a ring page: 256 frames, 16 KiB

// The tail word's flags: the producer holds the lease (between a burst's
// first reserve and its commit), the consumer took the page under head.
const leased, revoked, flagBits = 1, 2, 2

type framePage [pageFrames]dataFrame

// ringPad keeps the producer and consumer cursors on separate cache lines
// so commits and releases don't false-share.
type ringPad [64]byte

type frameRing struct {
	pages []*framePage // page table: filled at tail, emptied behind head
	pmask uint64
	size  int // capacity in frames

	_    ringPad
	head atomic.Uint64 // consumer cursor: next slot to release
	_    ringPad
	tail atomic.Uint64 // producer cursor<<flagBits | flags

	// The producer's own: cursor, lease, window (span slots from base in wpage).
	pos        uint64
	held       bool
	base, span uint64
	wpage      *framePage
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
// producer to write, or nil when the ring has no room for it; a page it
// needs comes from st. Producer side only.
func (r *frameRing) reserve(k int, st *pageStash) *dataFrame {
	if !r.held { // a burst's first reserve takes the lease
		r.held = true
		if r.tail.Swap(r.pos<<flagBits|leased)&revoked != 0 {
			r.pages[(r.pos>>pageShift)&r.pmask] = st.get() // and replaces a page idle took
			r.span = 0
		}
	}
	p := r.pos + uint64(k)
	if p-r.base >= r.span {
		return r.reserveSlow(p, st)
	}
	return &r.wpage[p%pageFrames]
}

// reserveSlow is reserve outside the producer's window: with head loaded
// afresh it gives p's page a page from st if it has none, and moves there.
func (r *frameRing) reserveSlow(p uint64, st *pageStash) *dataFrame {
	head := r.head.Load()
	if p-head >= uint64(r.size) {
		return nil
	}
	e := &r.pages[(p>>pageShift)&r.pmask]
	if *e == nil {
		*e = st.get()
	}
	r.wpage, r.base = *e, p&^(pageFrames-1)
	r.span = min(pageFrames, head+uint64(r.size)-r.base)
	return &r.wpage[p%pageFrames]
}

// commit publishes the first k reserved slots with one cursor store, which
// also ends the lease. Producer side only.
func (r *frameRing) commit(k int) {
	if r.held { // else nothing was reserved since the last commit
		r.pos += uint64(k)
		r.held = false
		r.tail.Store(r.pos << flagBits)
	}
}

// peekBurst fills out with pointers to up to len(out) committed frames,
// oldest first, and returns how many, a run per page. The frames stay in
// their slots, the consumer's to read and rewrite until it releases them.
// Consumer side only, and only with no frames of this ring peeked and not
// yet released.
func (r *frameRing) peekBurst(out []*dataFrame) int {
	head := r.head.Load()
	n := min(int(r.published()-head), len(out))
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

// release hands the k oldest peeked slots back with one cursor store,
// first giving st every page head passes. Consumer side only.
func (r *frameRing) release(k int, st *pageStash) {
	head := r.head.Load()
	to := head + uint64(k)
	for pg := head >> pageShift; pg < to>>pageShift; pg++ {
		e := &r.pages[pg&r.pmask]
		st.put(*e)
		*e = nil
	}
	r.head.Store(to)
}

// idle gives st the page under head when the ring is empty mid-page and
// unleased, as its consumer parks; a ring that drains and refills between
// parks keeps its page. Consumer side only.
func (r *frameRing) idle(st *pageStash) {
	head := r.head.Load()
	if t := head << flagBits; head%pageFrames != 0 && r.tail.Load() == t {
		// Read the entry first: once revoked shows, the producer may write it.
		if pg := r.pages[(head>>pageShift)&r.pmask]; r.tail.CompareAndSwap(t, t|revoked) {
			st.put(pg)
		}
	}
}

// published is the producer's committed cursor. Safe from any goroutine.
func (r *frameRing) published() uint64 { return r.tail.Load() >> flagBits }

// len returns the current occupancy, peeked frames included. Safe from any
// goroutine; exact only for the producer or consumer themselves.
func (r *frameRing) len() int { return int(r.published() - r.head.Load()) }

// pagePool is one cluster's free pages for all its rings; each of the made
// pages it allocated is always in a ring's table, a stash or here.
type pagePool struct {
	mu   sync.Mutex
	free []*framePage
	made int
}

const stashBatch = 4 // pages a data loop's stash moves at a time; it holds ≤ 2×

// pageStash is one goroutine's pages in front of the pool (DPDK's mempool
// cache), so a data loop turns the pages it takes and gives back with no
// lock. With batch 0 it holds none.
type pageStash struct {
	pool  *pagePool
	batch int
	pages []*framePage
}

// get takes a page, refilling an empty stash from the pool or a new page.
func (s *pageStash) get() *framePage {
	if len(s.pages) == 0 {
		p := s.pool
		p.mu.Lock()
		n := len(p.free) - min(len(p.free), max(s.batch, 1))
		if s.pages, p.free = append(s.pages, p.free[n:]...), p.free[:n]; len(s.pages) == 0 {
			p.made++
			s.pages = append(s.pages, new(framePage))
		}
		p.mu.Unlock()
	}
	pg := s.pages[len(s.pages)-1]
	s.pages = s.pages[:len(s.pages)-1]
	return pg
}

// put gives a page back, spilling down to a batch past twice that.
func (s *pageStash) put(pg *framePage) {
	if s.pages = append(s.pages, pg); len(s.pages) > 2*s.batch {
		s.spill(s.batch)
	}
}

// spill moves all but keep pages to the pool (all, as a data loop parks).
func (s *pageStash) spill(keep int) {
	if len(s.pages) > keep {
		s.pool.mu.Lock()
		s.pool.free = append(s.pool.free, s.pages[keep:]...)
		s.pool.mu.Unlock()
		s.pages = s.pages[:keep]
	}
}
