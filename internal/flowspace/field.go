// Package flowspace implements ternary-match arithmetic over the
// OpenFlow-style header tuple used throughout DIFANE.
//
// A Field is a (value, mask) pair over up to 64 bits where a mask bit of 1
// means "this bit must match exactly" and 0 means "don't care". A Match is
// one Field per header field. The package provides the set algebra the
// DIFANE algorithms need — overlap, containment, intersection and
// subtraction (the header-space complement construction) — together with a
// prioritized Rule model and whole-table semantics (highest-priority match,
// shadowing, dependency analysis).
package flowspace

import (
	"fmt"
	"math/bits"
	"strings"
)

// FieldID identifies one header field of the match tuple.
type FieldID int

// The match tuple. The widths follow the OpenFlow 1.0 twelve-tuple, minus
// the VLAN priority and ToS bits which DIFANE's evaluation never exercises.
const (
	FInPort FieldID = iota
	FEthSrc
	FEthDst
	FEthType
	FVLAN
	FIPProto
	FIPSrc
	FIPDst
	FTPSrc
	FTPDst
	NumFields
)

// fieldWidths gives the number of significant bits per field.
var fieldWidths = [NumFields]uint{
	FInPort:  16,
	FEthSrc:  48,
	FEthDst:  48,
	FEthType: 16,
	FVLAN:    12,
	FIPProto: 8,
	FIPSrc:   32,
	FIPDst:   32,
	FTPSrc:   16,
	FTPDst:   16,
}

var fieldNames = [NumFields]string{
	"in_port", "eth_src", "eth_dst", "eth_type", "vlan",
	"ip_proto", "ip_src", "ip_dst", "tp_src", "tp_dst",
}

// Width returns the bit width of field f.
func (f FieldID) Width() uint { return fieldWidths[f] }

// String returns the OpenFlow-style name of the field.
func (f FieldID) String() string {
	if f < 0 || f >= NumFields {
		return fmt.Sprintf("field(%d)", int(f))
	}
	return fieldNames[f]
}

// Field is a ternary value over a single header field. Bits above the
// field's width are always zero in both Value and Mask. A wildcard, most
// fields of most rules, encodes to JSON as {} (the controller journal).
type Field struct {
	Value uint64 `json:",omitempty"`
	Mask  uint64 `json:",omitempty"`
}

// WildcardField matches any value of the field.
func WildcardField() Field { return Field{} }

// ExactField matches exactly v over width bits.
func ExactField(f FieldID, v uint64) Field {
	w := fieldWidths[f]
	m := widthMask(w)
	return Field{Value: v & m, Mask: m}
}

// PrefixField matches the top plen bits of v over the field's width, the
// ternary encoding of an IP prefix.
func PrefixField(f FieldID, v uint64, plen uint) Field {
	w := fieldWidths[f]
	if plen > w {
		plen = w
	}
	m := widthMask(w) &^ widthMask(w-plen)
	return Field{Value: v & m, Mask: m}
}

func widthMask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// IsWildcard reports whether the field matches every value.
func (fd Field) IsWildcard() bool { return fd.Mask == 0 }

// IsExact reports whether the field pins every bit of width w.
func (fd Field) IsExact(w uint) bool { return fd.Mask == widthMask(w) }

// Matches reports whether the concrete value v satisfies the ternary field.
func (fd Field) Matches(v uint64) bool { return (v^fd.Value)&fd.Mask == 0 }

// Overlaps reports whether some concrete value satisfies both fields.
func (fd Field) Overlaps(o Field) bool { return (fd.Value^o.Value)&fd.Mask&o.Mask == 0 }

// Contains reports whether every value matching o also matches fd.
func (fd Field) Contains(o Field) bool {
	return fd.Mask&^o.Mask == 0 && (fd.Value^o.Value)&fd.Mask == 0
}

// Intersect returns the field matching exactly the values matched by both,
// and false if that set is empty.
func (fd Field) Intersect(o Field) (Field, bool) {
	if !fd.Overlaps(o) {
		return Field{}, false
	}
	m := fd.Mask | o.Mask
	v := (fd.Value & fd.Mask) | (o.Value & o.Mask)
	return Field{Value: v & m, Mask: m}, true
}

// FreeBits returns the number of wildcard bits within width w.
func (fd Field) FreeBits(w uint) int { return int(w) - bits.OnesCount64(fd.Mask) }

// format renders the field as a ternary bit string of width w, with 'x' for
// wildcard bits, or "*" when fully wildcarded.
func (fd Field) format(w uint) string {
	if fd.Mask == 0 {
		return "*"
	}
	var b strings.Builder
	for i := int(w) - 1; i >= 0; i-- {
		bit := uint64(1) << uint(i)
		switch {
		case fd.Mask&bit == 0:
			b.WriteByte('x')
		case fd.Value&bit != 0:
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	return b.String()
}

// RangeToFields decomposes the inclusive integer range [lo, hi] over width w
// into the minimal set of ternary prefixes covering it — the classic TCAM
// range expansion that makes ACL port ranges expensive.
func RangeToFields(lo, hi uint64, w uint) []Field {
	if lo > hi {
		return nil
	}
	max := widthMask(w)
	if hi > max {
		hi = max
	}
	var out []Field
	for lo <= hi {
		// Largest power-of-two block starting at lo that stays within hi.
		var size uint64 = 1
		for {
			next := size << 1
			if next == 0 || lo&(next-1) != 0 || lo+next-1 > hi {
				break
			}
			size = next
		}
		out = append(out, Field{
			Value: lo &^ (size - 1),
			Mask:  max &^ (size - 1),
		})
		if lo+size-1 == max {
			break // avoid wraparound
		}
		lo += size
	}
	return out
}
