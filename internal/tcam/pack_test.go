package tcam

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"difane/internal/flowspace"
)

// A leaf scan reads every byte of the slots it tests: two packed halves and
// the entry pointer are 72 bytes, where the inlined Match they replace made
// a slot 168.
func TestSlotIsPacked(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 72 {
		t.Fatalf("slot is %d bytes, want 72", got)
	}
}

// FuzzPackedMatchAgreesWithHolds: for an arbitrary key and match — each
// mask within its field's width, as flowspace keeps it, values and key
// bits anything at all — a slot tests the packed key as Match.Holds tests
// the key itself. Three keys are tried per input: the one drawn, that key
// moved inside the match, and that one with one bit flipped.
func FuzzPackedMatchAgreesWithHolds(f *testing.F) {
	// Words of input: a key word, a value and a mask per field, then the
	// bit to flip.
	const words = 3*int(flowspace.NumFields) + 1
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 8*words))
	f.Add(bytes.Repeat([]byte{0x5a, 0x00, 0xa5, 0xff, 0x01, 0x80, 0x0f, 0xf0}, words))
	f.Fuzz(func(t *testing.T, data []byte) {
		word := func(i int) uint64 {
			var b [8]byte
			if 8*i < len(data) {
				copy(b[:], data[8*i:])
			}
			return binary.LittleEndian.Uint64(b[:])
		}
		var k, inside flowspace.Key
		var e entry
		m := &e.rule.Match
		for i := range k {
			width := flowspace.FieldID(i).Width()
			fd := flowspace.Field{Value: word(3*i + 1), Mask: word(3*i+2) & (1<<width - 1)}
			m.Fields[i] = fd
			k[i] = word(3 * i)
			inside[i] = k[i]&^fd.Mask | fd.Value&fd.Mask
		}
		if !m.Holds(&inside) {
			t.Fatalf("%v does not hold for %v, a key moved inside it", m, inside)
		}
		flipped := inside
		b := word(words-1) % (64 * uint64(flowspace.NumFields))
		flipped[b/64] ^= 1 << (b % 64)
		s := slotOf(&e)
		for _, key := range []flowspace.Key{k, inside, flipped} {
			p := key.Pack()
			if got, want := s.holds(&p), m.Holds(&key); got != want {
				t.Fatalf("match %v, key %v: packed slot holds=%v, Match.Holds=%v", m, key, got, want)
			}
		}
	})
}
