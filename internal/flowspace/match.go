package flowspace

import (
	"math/bits"
	"strings"
)

// Match is a ternary predicate over the whole header tuple: one Field per
// header field, all of which must match. The zero Match matches every
// packet.
type Match struct {
	Fields [NumFields]Field
}

// MatchAll returns the match covering the entire flow space.
func MatchAll() Match { return Match{} }

// With returns a copy of m with field f replaced.
func (m Match) With(f FieldID, fd Field) Match {
	m.Fields[f] = fd
	return m
}

// WithExact returns a copy of m matching field f exactly.
func (m Match) WithExact(f FieldID, v uint64) Match {
	return m.With(f, ExactField(f, v))
}

// WithPrefix returns a copy of m matching the top plen bits of field f.
func (m Match) WithPrefix(f FieldID, v uint64, plen uint) Match {
	return m.With(f, PrefixField(f, v, plen))
}

// Key is a fully concrete header tuple — the projection of a packet header
// onto the match fields.
type Key [NumFields]uint64

// Matches reports whether the concrete header k satisfies m.
func (m Match) Matches(k Key) bool { return m.Holds(&k) }

// Overlaps reports whether some header satisfies both matches.
func (m Match) Overlaps(o Match) bool {
	for i := range m.Fields {
		if !m.Fields[i].Overlaps(o.Fields[i]) {
			return false
		}
	}
	return true
}

// Holds and meets are Matches and Overlaps by pointer, for the walks over a
// rule table (here and in internal/tcam): by value, inlined or not, each
// call copies a 160-byte Match.
func (m *Match) Holds(k *Key) bool {
	for i := range m.Fields {
		if (k[i]^m.Fields[i].Value)&m.Fields[i].Mask != 0 {
			return false
		}
	}
	return true
}

func (m *Match) meets(o *Match) bool {
	for i := range m.Fields {
		if (m.Fields[i].Value^o.Fields[i].Value)&m.Fields[i].Mask&o.Fields[i].Mask != 0 {
			return false
		}
	}
	return true
}

// Contains reports whether every header matching o also matches m.
func (m Match) Contains(o Match) bool {
	for i := range m.Fields {
		if !m.Fields[i].Contains(o.Fields[i]) {
			return false
		}
	}
	return true
}

// Intersect returns the match satisfied exactly by the headers satisfying
// both m and o, and false if no header does.
func (m Match) Intersect(o Match) (Match, bool) {
	var out Match
	for i := range m.Fields {
		fd, ok := m.Fields[i].Intersect(o.Fields[i])
		if !ok {
			return Match{}, false
		}
		out.Fields[i] = fd
	}
	return out, true
}

// Subtract returns a set of pairwise-disjoint matches whose union is
// exactly the headers matching m but not o. It follows the header-space
// complement construction: walk the exact bits of o that are free in
// m∩o's frame; for each, emit a piece where that bit is flipped and all
// previously visited bits agree with o.
func (m Match) Subtract(o Match) []Match {
	if !m.Overlaps(o) {
		return []Match{m} // disjoint: nothing to remove
	}
	if o.Contains(m) {
		return nil // fully covered
	}
	var out []Match
	// cur narrows toward inter one bit at a time; each emitted piece flips
	// the current bit, keeping the pieces pairwise disjoint.
	cur := m
	for f := FieldID(0); f < NumFields; f++ {
		w := fieldWidths[f]
		for i := int(w) - 1; i >= 0; i-- {
			bit := uint64(1) << uint(i)
			if o.Fields[f].Mask&bit == 0 || m.Fields[f].Mask&bit != 0 {
				continue // o doesn't pin this bit, or m already pins it
			}
			flipped := cur
			fd := flipped.Fields[f]
			fd.Mask |= bit
			fd.Value = (fd.Value &^ bit) | (^o.Fields[f].Value & bit)
			flipped.Fields[f] = fd

			fixed := cur.Fields[f]
			fixed.Mask |= bit
			fixed.Value = (fixed.Value &^ bit) | (o.Fields[f].Value & bit)
			cur.Fields[f] = fixed

			out = append(out, flipped)
		}
	}
	return out
}

// Carve narrows m, which holds k, to the one piece of m.Subtract(*o) that
// holds k, without building the others: Subtract's pieces are pairwise
// disjoint, and the piece it emits at the first bit of its walk where k
// leaves o is m with every bit o pins up to and including that one pinned
// to k's value. Disjoint from o, m is left as it is. Carve reports false,
// with m spent, when o holds k too and so no piece does.
func (m *Match) Carve(o *Match, k *Key) bool {
	if !m.meets(o) {
		return true
	}
	for f := range m.Fields {
		mf, of := &m.Fields[f], &o.Fields[f]
		pin := of.Mask &^ mf.Mask // the bits of f that Subtract walks
		diff := (k[f] ^ of.Value) & pin
		if diff != 0 {
			pin &^= uint64(1)<<(bits.Len64(diff)-1) - 1 // down to k's first flip
		}
		mf.Mask |= pin
		mf.Value = mf.Value&^pin | k[f]&pin
		if diff != 0 {
			return true
		}
	}
	return false
}

// FreeBits returns the total number of wildcard bits across all fields —
// log2 of the number of concrete headers the match covers.
func (m Match) FreeBits() int {
	n := 0
	for f := FieldID(0); f < NumFields; f++ {
		n += m.Fields[f].FreeBits(fieldWidths[f])
	}
	return n
}

// IsAll reports whether the match covers the entire flow space.
func (m Match) IsAll() bool {
	for i := range m.Fields {
		if m.Fields[i].Mask != 0 {
			return false
		}
	}
	return true
}

// String renders the non-wildcard fields as "name=ternary" pairs.
func (m Match) String() string {
	var parts []string
	for f := FieldID(0); f < NumFields; f++ {
		if m.Fields[f].Mask != 0 {
			parts = append(parts, f.String()+"="+m.Fields[f].format(fieldWidths[f]))
		}
	}
	if len(parts) == 0 {
		return "*"
	}
	return strings.Join(parts, ",")
}

// RandomKeyIn returns a concrete header inside m, with the wildcard bits
// filled from the given 64-bit random values (one per field, masked to
// width). Deterministic for fixed inputs.
func (m Match) RandomKeyIn(rand [NumFields]uint64) Key {
	var k Key
	for f := FieldID(0); f < NumFields; f++ {
		w := widthMask(fieldWidths[f])
		k[f] = (m.Fields[f].Value & m.Fields[f].Mask) | (rand[f] & w &^ m.Fields[f].Mask)
	}
	return k
}
