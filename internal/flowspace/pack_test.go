package flowspace

import (
	"math/bits"
	"testing"
)

// headerBits is the width of the header tuple, every bit of which has a
// place of its own in a Packed.
const headerBits = 244

// Each field, every bit set, lands on as many bits as its width, none of
// them another field's, and the fields fill 244 bits between them. A field
// widened without a place made for its new bits fails here rather than
// silently sharing bits with its neighbour, in the TCAM index and in the
// authority's cover memo alike.
func TestPackedLayout(t *testing.T) {
	var taken Packed
	total := 0
	for f := FieldID(0); f < NumFields; f++ {
		var k Key
		k[f] = ^uint64(0)
		p := k.Pack()
		n := 0
		for w := range p {
			if p[w]&taken[w] != 0 {
				t.Fatalf("%v shares bits %#x of word %d with an earlier field", f, p[w]&taken[w], w)
			}
			taken[w] |= p[w]
			n += bits.OnesCount64(p[w])
		}
		if n != int(f.Width()) {
			t.Fatalf("%v packs into %d bits, its width is %d", f, n, f.Width())
		}
		total += n
	}
	if total != headerBits {
		t.Fatalf("the fields pack into %d bits, want %d", total, headerBits)
	}
}

// A packed match is a full compare: two matches pack alike exactly when
// they hold for the same keys, whatever value bits their masks leave free.
func TestPackedMatchIsAFullCompare(t *testing.T) {
	a := MatchAll().WithPrefix(FIPSrc, 0x0A000000, 8).WithExact(FTPDst, 80)
	loose := a
	loose.Fields[FIPSrc].Value |= 0xff // below the prefix: no key sees it
	if a.Pack() != loose.Pack() {
		t.Fatal("value bits outside the mask changed the packing")
	}
	for f := FieldID(0); f < NumFields; f++ {
		for _, bit := range []uint{0, f.Width() - 1} {
			b := a
			b.Fields[f].Mask ^= 1 << bit
			b.Fields[f].Value &= b.Fields[f].Mask
			if a.Pack() == b.Pack() {
				t.Fatalf("flipping mask bit %d of %v left the packing unchanged", bit, f)
			}
			c := a.WithExact(f, 0)
			d := a.WithExact(f, 1<<bit)
			if c.Pack() == d.Pack() {
				t.Fatalf("value bit %d of exact %v left the packing unchanged", bit, f)
			}
		}
	}
}
