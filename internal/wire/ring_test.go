package wire

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/packet"
)

// testFrame is frame i of a ring test: every field derived from i, so a
// torn, stale or misplaced frame shows.
func testFrame(i uint64) dataFrame {
	return dataFrame{
		hdr:      packet.Header{IPSrc: uint32(i), TPDst: uint16(i >> 8)},
		size:     uint32(i % 1500),
		injected: int64(i),
		trace:    i * 7,
		reason:   packet.EncapReason(i % 3),
		encapBy:  uint16(i),
	}
}

// checkFrame reports how frame f differs from testFrame(i), if it does.
func checkFrame(f *dataFrame, i uint64) error {
	if want := testFrame(i); *f != want {
		return fmt.Errorf("frame %d: got %+v, want %+v", i, *f, want)
	}
	return nil
}

// consumeFrames consumes total frames from r on its own goroutine the way
// a data loop does — peek a burst, read and rewrite the frames in their
// slots, release them and their pages into st — checking that frame i is
// testFrame(i), and reports the first difference (or nil) on the returned
// channel. A held burst is checked again after a yield: a producer writing
// into a peeked slot shows as a changed frame, and under -race as a race
// on the slot.
func consumeFrames(r *frameRing, total uint64, st *pageStash) <-chan error {
	done := make(chan error, 1)
	go func() {
		out := make([]*dataFrame, 3) // odd burst size forces mid-ring wraps
		for next := uint64(0); next < total; {
			n := r.peekBurst(out)
			if n == 0 {
				runtime.Gosched() // single-core CI: yield instead of spinning
				continue
			}
			for i := 0; i < n; i++ {
				if err := checkFrame(out[i], next+uint64(i)); err != nil {
					done <- err
					return
				}
			}
			runtime.Gosched()
			for i := 0; i < n; i++ {
				if err := checkFrame(out[i], next+uint64(i)); err != nil {
					done <- fmt.Errorf("held frame overwritten: %w", err)
					return
				}
				out[i].reason, out[i].via = 0, 1 // decapsulate in place
			}
			r.release(n, st)
			next += uint64(n)
		}
		done <- nil
	}()
	return done
}

// newStash returns a stash of stashBatch pages over a pool of its own, or
// over pool when one is given.
func newStash(pool ...*pagePool) *pageStash {
	p := &pagePool{}
	if len(pool) > 0 {
		p = pool[0]
	}
	return &pageStash{pool: p, batch: stashBatch}
}

// yieldToConsumer is a producer's wait on a full ring. A consumer that
// found a bad frame has stopped and will never free a slot, so its error
// ends the test here instead of the producer spinning for ever.
func yieldToConsumer(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("consumer stopped early: %v", err)
	default:
		runtime.Gosched()
	}
}

// TestFrameRingWraparound drives far more frames than the ring holds
// through a concurrent producer/consumer pair, so the cursors wrap the
// power-of-two index space many times. Every frame must arrive exactly
// once, in order, with its contents intact — and under -race the
// store/load pairing on the cursors must establish the happens-before
// edges the ring's correctness rests on, in both directions: commit
// before peek, and the consumer's in-place rewrite before release and the
// producer's reuse.
func TestFrameRingWraparound(t *testing.T) {
	const depth = 8
	const total = 50_000
	r, st := newFrameRing(depth), newStash()
	if r.size != depth {
		t.Fatalf("ring capacity = %d, want %d", r.size, depth)
	}
	done := consumeFrames(r, total, newStash(st.pool))
	for seq := uint64(0); seq < total; {
		k := 0
		for ; k < 5 && seq+uint64(k) < total; k++ {
			f := r.reserve(k, st)
			if f == nil {
				break
			}
			*f = testFrame(seq + uint64(k))
		}
		if k == 0 {
			yieldToConsumer(t, done)
		}
		r.commit(k)
		seq += uint64(k)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.len() != 0 {
		t.Fatalf("ring not empty after drain: len = %d", r.len())
	}
}

// TestFrameRingReserveCommit is the producer's side of the contract the
// forwarding path relies on, against a concurrent consumer: reservations
// of uneven sizes, committed whole or in part — the uncommitted remainder
// must never reach the consumer, and the next reservation writes over it,
// as when a destination dies between stage and commit — across many
// wraparounds. Every committed frame arrives once and in order.
func TestFrameRingReserveCommit(t *testing.T) {
	const total = 40_000
	r, st := newFrameRing(16), newStash()
	done := consumeFrames(r, total, newStash(st.pool))
	seq := uint64(0)
	for round := 0; seq < total; round++ {
		want := 1 + round%7 // 1..7 frames, against a ring of 16
		k := 0
		for ; k < want; k++ {
			f := r.reserve(k, st)
			if f == nil {
				break
			}
			*f = testFrame(seq + uint64(k))
		}
		// Every third round abandons its last reservation: it carries a
		// frame number the consumer must not see yet.
		if round%3 == 0 && k > 0 {
			k--
		}
		k = min(k, int(total-seq))
		if k == 0 {
			yieldToConsumer(t, done)
		}
		r.commit(k)
		seq += uint64(k)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFrameRingBackpressure checks the full/empty edge cases: a reserve
// past the free space returns nil, on a full ring the first one does, a
// reservation is invisible until committed, peekBurst shows exactly what
// was committed, and only release frees the slots.
func TestFrameRingBackpressure(t *testing.T) {
	r, st := newFrameRing(4), newStash()
	for k := 0; k < 4; k++ {
		f := r.reserve(k, st)
		if f == nil {
			t.Fatalf("reserve(%d) on an empty ring of 4 = nil", k)
		}
		f.injected = int64(k)
	}
	if r.reserve(4, st) != nil {
		t.Fatal("reserve past the ring's size succeeded")
	}
	out := make([]*dataFrame, 8)
	if n := r.peekBurst(out); n != 0 || r.len() != 0 {
		t.Fatalf("uncommitted frames visible: peekBurst = %d, len = %d", n, r.len())
	}
	r.commit(4)
	if r.reserve(0, st) != nil {
		t.Fatal("reserve on a full ring succeeded")
	}
	if n := r.peekBurst(out); n != 4 {
		t.Fatalf("peekBurst = %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if out[i].injected != int64(i) {
			t.Fatalf("frame %d: injected = %d", i, out[i].injected)
		}
	}
	if r.reserve(0, st) != nil || r.len() != 4 {
		t.Fatalf("peeked frames freed before release: len = %d", r.len())
	}
	r.release(4, st)
	if n := r.peekBurst(out); n != 0 {
		t.Fatalf("peekBurst from empty ring = %d, want 0", n)
	}
	// Freed slots are reusable: the ring takes a fresh burst after drain.
	for k := 0; k < 3; k++ {
		if r.reserve(k, st) == nil {
			t.Fatalf("reserve(%d) after drain = nil", k)
		}
	}
	r.commit(3)
	if got := r.len(); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
}

// TestFrameRingNeverReservesPeekedSlot: for every split of a ring of 8
// into peeked, committed-but-unpeeked and free slots, at every offset of
// the cursors around the index space, the producer is handed exactly the
// free slots — never one the consumer has peeked and not released — and
// filling all of them leaves every peeked frame as it was. Each release of
// one frame makes exactly one more slot reservable, none of the frames
// still held.
func TestFrameRingNeverReservesPeekedSlot(t *testing.T) {
	const depth = 8
	r, st := newFrameRing(depth), newStash()
	out := make([]*dataFrame, depth)
	seq := uint64(0)
	for offset := 0; offset < 3*depth; offset++ {
		for committed := 1; committed <= depth; committed++ {
			for peek := 1; peek <= committed; peek++ {
				for k := 0; k < committed; k++ {
					*r.reserve(k, st) = testFrame(seq + uint64(k))
				}
				r.commit(committed)
				n := r.peekBurst(out[:peek])
				if n != peek {
					t.Fatalf("peekBurst = %d, want %d", n, peek)
				}
				held := make(map[*dataFrame]bool, n)
				for _, f := range out[:n] {
					held[f] = true
				}
				free := depth - committed
				for k := 0; k < free; k++ {
					f := r.reserve(k, st)
					if f == nil {
						t.Fatalf("offset %d, %d committed, %d peeked: reserve(%d) = nil with %d free", offset, committed, peek, k, free)
					}
					if held[f] {
						t.Fatalf("offset %d, %d committed, %d peeked: reserve(%d) handed out a peeked slot", offset, committed, peek, k)
					}
					*f = testFrame(1 << 40) // a reservation never committed
				}
				if r.reserve(free, st) != nil {
					t.Fatalf("offset %d, %d committed, %d peeked: reserve past the free space succeeded", offset, committed, peek)
				}
				for i, f := range out[:n] {
					if err := checkFrame(f, seq+uint64(i)); err != nil {
						t.Fatalf("offset %d: peeked frame changed by the producer: %v", offset, err)
					}
				}
				// Release the held frames one at a time: each frees exactly
				// one slot, and it is none of those still held.
				for i := 0; i < n; i++ {
					r.release(1, st)
					f := r.reserve(free+i, st)
					if f == nil || r.reserve(free+i+1, st) != nil {
						t.Fatalf("offset %d: release %d did not free exactly one slot", offset, i)
					}
					if slices.Contains(out[i+1:n], f) {
						t.Fatalf("offset %d: release %d freed a slot still held", offset, i)
					}
				}
				// Drain the rest so the next case starts empty.
				rest := r.peekBurst(out)
				r.release(rest, st)
				seq += uint64(committed)
			}
		}
		// Advance the cursors by one so every case recurs at every offset
		// of the ring.
		*r.reserve(0, st) = dataFrame{}
		r.commit(1)
		r.release(r.peekBurst(out), st)
	}
}

// ringPages counts the pages r's table holds. The entry under a revoked
// tail does not count: its page is already the consumer's stash's, and
// the producer's next lease replaces it. Only with r's two sides idle.
func ringPages(r *frameRing) int {
	n := 0
	for _, p := range r.pages {
		if p != nil {
			n++
		}
	}
	if r.tail.Load()&revoked != 0 {
		n--
	}
	return n
}

// pagesHeld counts the pages in the rings' tables, the pool and the
// stashes, each page once. With nothing moving it equals pool.made, every
// page the pool ever allocated.
func pagesHeld(pool *pagePool, rings []*frameRing, stashes ...*pageStash) int {
	pool.mu.Lock()
	n := len(pool.free)
	pool.mu.Unlock()
	for _, r := range rings {
		n += ringPages(r)
	}
	for _, s := range stashes {
		n += len(s.pages)
	}
	return n
}

// pagesMade is how many pages pool has allocated: an upper bound, safe
// from any goroutine, on the pages its rings and stashes hold.
func pagesMade(pool *pagePool) int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.made
}

// checkPagesHeld fails t unless every page pool made is in exactly one of
// the rings' tables, the pool and the stashes.
func checkPagesHeld(t *testing.T, pool *pagePool, rings []*frameRing, stashes ...*pageStash) {
	t.Helper()
	if held, made := pagesHeld(pool, rings, stashes...), pagesMade(pool); held != made {
		t.Fatalf("%d pages held in tables, pool and stashes, %d made", held, made)
	}
}

// TestFrameRingRecyclesPages: a ring's memory follows the frames in flight,
// not its depth. Steady traffic with at most 64 frames in a ring of 16,384
// turns pages over hundreds of times on two pages, allocating nothing once
// warm; filled from there, the ring at occupancy k holds at most
// ⌈k/256⌉+1 pages. Pages held counts the ring's table, the pool and the
// stashes. The concurrent run checks release's page hand-over between
// consumer and producer under -race, frames intact, with neither side
// keeping a page the other might want: each goes through the pool. Its
// consumer never calls idle; TestRingPagesPassBetweenRings races that.
func TestFrameRingRecyclesPages(t *testing.T) {
	const depth, inFlight, turnovers = 16384, 64, 120
	t.Run("one goroutine", func(t *testing.T) {
		r, st := newFrameRing(depth), newStash()
		rings := []*frameRing{r}
		out := make([]*dataFrame, inFlight)
		var seq, next uint64
		most := 0
		var bad error
		// step moves one page's worth of frames through r: bursts of up to
		// 48 in and 37 out, never more than inFlight in the ring.
		step := func() {
			for end := next + pageFrames; next < end; {
				k := 0
				for ; k < 48 && r.len()+k < inFlight; k++ {
					*r.reserve(k, st) = testFrame(seq + uint64(k))
				}
				r.commit(k)
				seq += uint64(k)
				most = max(most, pagesHeld(st.pool, rings, st))
				n := r.peekBurst(out[:37])
				for i := range n {
					if err := checkFrame(out[i], next+uint64(i)); err != nil && bad == nil {
						bad = err
					}
				}
				r.release(n, st)
				next += uint64(n)
			}
		}
		allocs := testing.AllocsPerRun(turnovers, step)
		if bad != nil {
			t.Fatal(bad)
		}
		if most > 2 {
			t.Fatalf("%d pages held with at most %d frames in flight, want ≤ 2", most, inFlight)
		}
		if allocs != 0 && !raceEnabled {
			t.Fatalf("%v allocations per page turnover after warm-up, want 0", allocs)
		}
		checkPagesHeld(t, st.pool, rings, st)
		r.release(r.peekBurst(out), st)
		for k := 1; k <= depth; k++ {
			*r.reserve(0, st) = dataFrame{}
			r.commit(1)
			if held, bound := pagesHeld(st.pool, rings, st), (k+pageFrames-1)/pageFrames+1; held > bound {
				t.Fatalf("occupancy %d: %d pages held, want ≤ %d", k, held, bound)
			}
		}
		checkPagesHeld(t, st.pool, rings, st)
	})
	t.Run("concurrent consumer", func(t *testing.T) {
		const total = turnovers * pageFrames
		pool := &pagePool{}
		prod, cons := pageStash{pool: pool}, pageStash{pool: pool}
		r := newFrameRing(depth)
		done := consumeFrames(r, total, &cons)
		for seq := uint64(0); seq < total; {
			k := 0
			for ; k < 48 && r.len()+k < inFlight && seq+uint64(k) < total; k++ {
				*r.reserve(k, &prod) = testFrame(seq + uint64(k))
			}
			if k == 0 {
				yieldToConsumer(t, done)
			}
			r.commit(k)
			seq += uint64(k)
			if made := pagesMade(pool); made > 2 {
				t.Fatalf("%d pages held with at most %d frames in flight, want ≤ 2", made, inFlight)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		checkPagesHeld(t, pool, []*frameRing{r}, &prod, &cons)
		if held := ringPages(r); held != 0 {
			t.Fatalf("drained ring holds %d pages, want 0", held)
		}
	})
}

// TestRingPagesPassBetweenRings: the pages one ring's consumer gives back
// feed another ring's producer on another goroutine, as a data loop turns
// the pages of its input rings into those of its outputs. The test
// goroutine produces into ring a in uneven bursts with a yield after each;
// a forwarder goroutine consumes a and copies each frame into ring b with
// one stash for both, and when it finds a empty it parks as a data loop
// does (idle, then spill), so a drain to head == tail races the producer's
// next burst: the consumer taking the page under head, the producer's
// lease replacing it. consumeFrames checks on a third goroutine that every
// frame leaves b once, in order, intact. Once both consumers have parked
// at the end, neither ring holds a page, and every page is in one place.
func TestRingPagesPassBetweenRings(t *testing.T) {
	const total = 100_000 // not a multiple of pageFrames: a ends mid-page
	pool := &pagePool{}
	a, b := newFrameRing(1024), newFrameRing(1024)
	prod, fwd, sink := newStash(pool), newStash(pool), newStash(pool)
	done := consumeFrames(b, total, sink)
	forwarded := make(chan struct{})
	go func() {
		defer close(forwarded)
		out := make([]*dataFrame, fabricBurst)
		for moved := uint64(0); moved < total; {
			n := a.peekBurst(out)
			if n == 0 {
				a.idle(fwd)
				fwd.spill(0)
				runtime.Gosched()
			}
			forward(b, out[:n], fwd)
			a.release(n, fwd)
			moved += uint64(n)
		}
	}()
	for seq := uint64(0); seq < total; {
		k := 0
		for ; k < 1+int(seq%61) && seq+uint64(k) < total; k++ {
			f := a.reserve(k, prod)
			if f == nil {
				break
			}
			*f = testFrame(seq + uint64(k))
		}
		a.commit(k)
		seq += uint64(k)
		yieldToConsumer(t, done)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-forwarded
	a.idle(fwd)
	b.idle(sink)
	for name, r := range map[string]*frameRing{"a": a, "b": b} {
		if held := ringPages(r); held != 0 {
			t.Errorf("drained ring %s holds %d pages, want 0", name, held)
		}
	}
	checkPagesHeld(t, pool, []*frameRing{a, b}, prod, fwd, sink)
}

// forward copies frames into r, a burst at a time, yielding while r is
// full.
func forward(r *frameRing, frames []*dataFrame, st *pageStash) {
	for len(frames) > 0 {
		k := 0
		for ; k < len(frames); k++ {
			f := r.reserve(k, st)
			if f == nil {
				break
			}
			*f = *frames[k]
		}
		r.commit(k)
		if frames = frames[k:]; k == 0 {
			runtime.Gosched()
		}
	}
}

// BenchmarkFrameRing moves frames between goroutines in bursts of up to 64,
// as switches hand them on; ns/op is per frame. "one ring" is a producer
// and a consumer on one ring. "shared pool" is two rings turning pages
// through one pool: one goroutine feeds ring a and drains ring b, the
// other forwards a into b, and each takes and gives pages through a stash
// of its own.
func BenchmarkFrameRing(b *testing.B) {
	const burst = fabricBurst
	// drain moves up to a burst out of from, on into to unless it is nil,
	// and returns how many.
	drain := func(from, to *frameRing, st *pageStash, out []*dataFrame) int {
		n := from.peekBurst(out)
		if to != nil {
			forward(to, out[:n], st)
		}
		for _, f := range out[:n] {
			f.reason = 0
		}
		from.release(n, st)
		return n
	}
	// feed reserves and commits up to a burst of new frames, seq on.
	feed := func(r *frameRing, st *pageStash, seq, total uint64) int {
		k := 0
		for ; k < burst && seq+uint64(k) < total; k++ {
			f := r.reserve(k, st)
			if f == nil {
				break
			}
			f.injected = int64(seq + uint64(k))
		}
		r.commit(k)
		return k
	}
	b.Run("one ring", func(b *testing.B) {
		pool := &pagePool{}
		r := newFrameRing(1024)
		prod, cons := newStash(pool), newStash(pool)
		total := uint64(b.N)
		done := make(chan struct{})
		b.ReportAllocs()
		b.ResetTimer()
		go func() {
			out := make([]*dataFrame, burst)
			for got := uint64(0); got < total; {
				n := drain(r, nil, cons, out)
				if n == 0 {
					runtime.Gosched()
				}
				got += uint64(n)
			}
			close(done)
		}()
		for seq := uint64(0); seq < total; {
			k := feed(r, prod, seq, total)
			if k == 0 {
				runtime.Gosched()
			}
			seq += uint64(k)
		}
		<-done
	})
	b.Run("shared pool", func(b *testing.B) {
		pool := &pagePool{}
		ra, rb := newFrameRing(1024), newFrameRing(1024)
		ends, mid := newStash(pool), newStash(pool)
		total := uint64(b.N)
		done := make(chan struct{})
		b.ReportAllocs()
		b.ResetTimer()
		go func() {
			out := make([]*dataFrame, burst)
			for moved := uint64(0); moved < total; {
				n := drain(ra, rb, mid, out)
				if n == 0 {
					runtime.Gosched()
				}
				moved += uint64(n)
			}
			close(done)
		}()
		out := make([]*dataFrame, burst)
		for seq, got := uint64(0), uint64(0); got < total; {
			k := feed(ra, ends, seq, total)
			seq += uint64(k)
			n := drain(rb, nil, ends, out)
			got += uint64(n)
			if k == 0 && n == 0 {
				runtime.Gosched()
			}
		}
		<-done
	})
}

// TestDrainedClusterHoldsNoRingPages: a four-switch cluster carries one
// closed-loop window — every ingress sending to every egress, first
// packets redirected through the authorities — and quiesces. Every ring is
// then drained and its table holds no page, and once the data loops have
// stopped, spilling their stashes, the pool holds every page it made,
// once. It made no more than the window's frames fill,
// ⌈window/pageFrames⌉, plus one page for each ring that carried frames
// (the page a ring is filling when it drains goes back unfilled) and each
// data loop's stash.
func TestDrainedClusterHoldsNoRingPages(t *testing.T) {
	// A window that fills no ring to a page boundary, so every ring that
	// carried frames ends mid-page, with a page only idle gives back.
	const switches, window = 4, 3000
	ids := make([]uint32, switches)
	policy := make([]flowspace.Rule, switches)
	for i := range ids {
		ids[i] = uint32(i)
		policy[i] = flowspace.Rule{ID: uint64(i + 1), Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FIPDst, uint64(i)),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(i)}}
	}
	c := startCluster(t, slack(ClusterConfig{
		Switches:    ids,
		Authorities: []uint32{1, 2},
		Policy:      policy,
		QueueDepth:  4096,
	}))
	batch := make([]core.PacketIn, window)
	for i := range batch {
		h := httpHeader(uint32(i % 64))
		h.IPDst = uint32(i/switches) % switches
		batch[i] = core.PacketIn{Ingress: uint32(i % switches), Key: h.Key(), Size: 100}
	}
	d := Deploy(c)
	d.InjectBatch(batch)
	d.Run(10)
	if m := c.Measurements(); m.Delivered != window {
		t.Fatalf("delivered %d of %d packets (drops %+v)", m.Delivered, window, m.Drops)
	}
	c.Close() // the data loops flush their stashes as they stop
	var rings []*frameRing
	carried := 0
	for _, n := range c.nodes {
		for _, r := range n.in {
			rings = append(rings, r)
			if r.len() != 0 {
				t.Fatalf("switch %d: a ring still holds %d frames", n.id, r.len())
			}
			if held := ringPages(r); held != 0 {
				t.Errorf("switch %d: a drained ring holds %d pages", n.id, held)
			}
			if r.pos != 0 {
				carried++
			}
		}
	}
	stashes := make([]*pageStash, len(c.nodes))
	for i, n := range c.nodes {
		stashes[i] = &n.injPages
	}
	checkPagesHeld(t, &c.pool, rings, stashes...)
	made := pagesMade(&c.pool)
	bound := (window+pageFrames-1)/pageFrames + carried + switches*2*stashBatch
	t.Logf("%d pages made (%d KiB) for a window of %d over %d rings; bound %d", made, made*16, window, carried, bound)
	if made > bound {
		t.Fatalf("%d pages made, want ≤ %d", made, bound)
	}
}

// TestRingMemoryTracksTraffic: a 16-switch cluster at QueueDepth 16,384 has
// 16×17 input rings of 16,384 one-cache-line slots, 272 MiB were each
// allocated whole. Carrying one packet per (ingress, egress) pair to
// quiescence, its live heap grows by what the traffic holds instead.
func TestRingMemoryTracksTraffic(t *testing.T) {
	const switches, budget = 16, 5 << 20
	ids := make([]uint32, switches)
	policy := make([]flowspace.Rule, switches)
	for i := range ids {
		ids[i] = uint32(i)
		policy[i] = flowspace.Rule{ID: uint64(i + 1), Priority: 10,
			Match:  flowspace.MatchAll().WithExact(flowspace.FIPDst, uint64(i)),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(i)}}
	}
	before := liveHeap()
	c := startCluster(t, slack(ClusterConfig{
		Switches:    ids,
		Authorities: []uint32{0, 5, 10, 15},
		Policy:      policy,
		QueueDepth:  16384,
	}))
	d := Deploy(c)
	for _, in := range ids {
		for _, eg := range ids {
			h := httpHeader(in)
			h.IPDst = eg
			d.InjectPacket(0, in, h.Key(), 100, 0)
		}
	}
	d.Run(10)
	if m := c.Measurements(); m.Delivered != switches*switches {
		t.Fatalf("delivered %d of %d packets (drops %+v)", m.Delivered, switches*switches, m.Drops)
	}
	grew := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(c)
	t.Logf("live heap grew %.1f MB, %d ring pages made", float64(grew)/(1<<20), pagesMade(&c.pool))
	if grew > budget {
		t.Fatalf("live heap grew %.1f MB, want ≤ %d MB", float64(grew)/(1<<20), budget>>20)
	}
}
