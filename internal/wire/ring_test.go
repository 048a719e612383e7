package wire

import (
	"fmt"
	"runtime"
	"testing"

	"difane/internal/packet"
)

// testFrame is frame i of a ring test: every field derived from i, so a
// torn, stale or misplaced frame shows.
func testFrame(i uint64) dataFrame {
	return dataFrame{
		pkt: packet.Packet{
			Header: packet.Header{IPSrc: uint32(i)},
			Size:   int(i % 1500),
		},
		injected: int64(i),
		hasEncap: i%2 == 0,
		encap:    packet.Encap{Reason: packet.EncapTunnel, Target: uint32(i)},
	}
}

// checkFrame reports how frame f differs from testFrame(i), if it does.
func checkFrame(f *dataFrame, i uint64) error {
	if f.injected != int64(i) {
		return fmt.Errorf("frame %d: injected = %d", i, f.injected)
	}
	if f.pkt.Header.IPSrc != uint32(i) || f.pkt.Size != int(i%1500) {
		return fmt.Errorf("frame %d: header/size corrupted: %+v", i, f.pkt)
	}
	if f.hasEncap != (i%2 == 0) || f.encap.Target != uint32(i) {
		return fmt.Errorf("frame %d: encap = %v %+v", i, f.hasEncap, f.encap)
	}
	return nil
}

// consumeFrames pops total frames from r on its own goroutine, checking
// that frame i is testFrame(i), and reports the first difference (or nil)
// on the returned channel.
func consumeFrames(r *frameRing, total uint64) <-chan error {
	done := make(chan error, 1)
	go func() {
		out := make([]dataFrame, 3) // odd burst size forces mid-ring wraps
		for next := uint64(0); next < total; {
			n := r.popBurst(out)
			if n == 0 {
				runtime.Gosched() // single-core CI: yield instead of spinning
				continue
			}
			for i := 0; i < n; i++ {
				if err := checkFrame(&out[i], next); err != nil {
					done <- err
					return
				}
				next++
			}
		}
		done <- nil
	}()
	return done
}

// TestFrameRingWraparound drives far more frames than the ring holds
// through a concurrent producer/consumer pair, so the cursors wrap the
// power-of-two index space many times. Every frame must arrive exactly
// once, in order, with its contents intact — and under -race the
// store/load pairing on the cursors must establish the happens-before
// edges the ring's correctness rests on.
func TestFrameRingWraparound(t *testing.T) {
	const depth = 8
	const total = 50_000
	r := newFrameRing(depth)
	if len(r.buf) != depth {
		t.Fatalf("ring depth = %d, want %d", len(r.buf), depth)
	}
	done := consumeFrames(r, total)
	for seq := uint64(0); seq < total; {
		k := 0
		for ; k < 5 && seq+uint64(k) < total; k++ {
			f := r.reserve(k)
			if f == nil {
				break
			}
			*f = testFrame(seq + uint64(k))
		}
		if k == 0 {
			runtime.Gosched()
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
	r := newFrameRing(16)
	done := consumeFrames(r, total)
	seq := uint64(0)
	for round := 0; seq < total; round++ {
		want := 1 + round%7 // 1..7 frames, against a ring of 16
		k := 0
		for ; k < want; k++ {
			f := r.reserve(k)
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
			runtime.Gosched()
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
// reservation is invisible until committed, and popBurst drains exactly
// what was committed.
func TestFrameRingBackpressure(t *testing.T) {
	r := newFrameRing(4)
	for k := 0; k < 4; k++ {
		f := r.reserve(k)
		if f == nil {
			t.Fatalf("reserve(%d) on an empty ring of 4 = nil", k)
		}
		f.injected = int64(k)
	}
	if r.reserve(4) != nil {
		t.Fatal("reserve past the ring's size succeeded")
	}
	out := make([]dataFrame, 8)
	if n := r.popBurst(out); n != 0 || r.len() != 0 {
		t.Fatalf("uncommitted frames visible: popBurst = %d, len = %d", n, r.len())
	}
	r.commit(4)
	if r.reserve(0) != nil {
		t.Fatal("reserve on a full ring succeeded")
	}
	if n := r.popBurst(out); n != 4 {
		t.Fatalf("popBurst = %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if out[i].injected != int64(i) {
			t.Fatalf("frame %d: injected = %d", i, out[i].injected)
		}
	}
	if n := r.popBurst(out); n != 0 {
		t.Fatalf("popBurst from empty ring = %d, want 0", n)
	}
	// Freed slots are reusable: the ring takes a fresh burst after drain.
	for k := 0; k < 3; k++ {
		if r.reserve(k) == nil {
			t.Fatalf("reserve(%d) after drain = nil", k)
		}
	}
	r.commit(3)
	if got := r.len(); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
}
