package bitvec

import (
	"fmt"
	"strings"
)

// Vector is a fixed-length sequence of bits backed by a byte slice.
// Bits are packed MSB-first: position 0 is bit 7 of data[0]. Unused
// trailing bits in the final byte are always kept zero, so two equal
// vectors have byte-for-byte equal backing stores and Key is usable
// as a map key.
//
// The zero value is an empty (length 0) vector ready for use.
type Vector struct {
	data []byte
	n    int // length in bits
}

// New returns a zeroed vector of n bits.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{data: make([]byte, (n+7)/8), n: n}
}

// FromBytes builds an n-bit vector from the first n bits of data
// (MSB-first). The bytes are copied; data may be reused by the
// caller. It panics if data holds fewer than n bits.
func FromBytes(data []byte, n int) *Vector {
	if len(data)*8 < n {
		panic(fmt.Sprintf("bitvec: need %d bits, have %d", n, len(data)*8))
	}
	v := New(n)
	copy(v.data, data[:(n+7)/8])
	v.clearTail()
	return v
}

// FromUint returns an n-bit vector holding x, with the least
// significant bit of x at position n-1 (i.e. x is right-aligned, the
// natural reading of an integer written in binary). Bits of x above
// position n-1 are ignored.
func FromUint(x uint64, n int) *Vector {
	v := New(n)
	w := min(n, 64)
	PutUint(v.data, n-w, x, w)
	return v
}

// Parse builds a vector from a binary string such as "0100110".
// Characters other than '0' and '1' (e.g. spaces, underscores) are
// ignored, so "0100 110" parses as seven bits.
func Parse(s string) (*Vector, error) {
	var bits []bool
	for _, r := range s {
		switch r {
		case '0':
			bits = append(bits, false)
		case '1':
			bits = append(bits, true)
		case ' ', '_', '|':
			// separators are allowed anywhere
		default:
			return nil, fmt.Errorf("bitvec: invalid character %q in %q", r, s)
		}
	}
	v := New(len(bits))
	for i, b := range bits {
		v.Set(i, b)
	}
	return v, nil
}

// MustParse is Parse, panicking on error. Intended for constants in
// tests and table initialisers.
func MustParse(s string) *Vector {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Len returns the length of the vector in bits.
func (v *Vector) Len() int { return v.n }

// Bytes returns the backing store: ceil(n/8) bytes, MSB-first, with
// zero padding bits at the tail. The slice aliases the vector; treat
// it as read-only or Clone first.
func (v *Vector) Bytes() []byte { return v.data }

// AppendBytes appends the vector's backing bytes to dst.
func (v *Vector) AppendBytes(dst []byte) []byte { return append(dst, v.data...) }

// Bit reports the bit at position i (0 = most significant).
func (v *Vector) Bit(i int) bool {
	v.check(i)
	return v.data[i>>3]>>(7-uint(i&7))&1 == 1
}

// Set sets the bit at position i to b.
func (v *Vector) Set(i int, b bool) {
	v.check(i)
	mask := byte(1) << (7 - uint(i&7))
	if b {
		v.data[i>>3] |= mask
	} else {
		v.data[i>>3] &^= mask
	}
}

// Flip inverts the bit at position i.
func (v *Vector) Flip(i int) {
	v.check(i)
	v.data[i>>3] ^= 1 << (7 - uint(i&7))
}

// Equal reports whether v and u have the same length and bits.
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.data {
		if v.data[i] != u.data[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	c := New(v.n)
	copy(c.data, v.data)
	return c
}

// Reset reinitialises v to a zeroed n-bit vector, reusing the backing
// array when it has capacity. It exists for hot loops that refill the
// same scratch vector instead of allocating a fresh one per item.
//
//zipline:noalloc
func (v *Vector) Reset(n int) {
	if n < 0 {
		panic("bitvec: negative length")
	}
	nb := (n + 7) / 8
	if cap(v.data) >= nb {
		v.data = v.data[:nb]
		clear(v.data)
	} else {
		//ziplint:allow noalloc grow-to-fit when caller scratch is short; reused scratch never reallocates
		v.data = make([]byte, nb)
	}
	v.n = n
}

// Slice returns a new vector holding bits [start, start+length) of v.
func (v *Vector) Slice(start, length int) *Vector {
	if start < 0 || length < 0 || start+length > v.n {
		panic(fmt.Sprintf("bitvec: slice [%d,%d+%d) out of range 0..%d", start, start, length, v.n))
	}
	out := New(length)
	CopyBits(out.data, 0, v.data, start, length)
	return out
}

// Uint returns the vector interpreted as an unsigned integer with
// position n-1 as the least significant bit. It panics if n > 64.
func (v *Vector) Uint() uint64 {
	if v.n > 64 {
		panic(fmt.Sprintf("bitvec: %d bits do not fit in uint64", v.n))
	}
	return Uint(v.data, 0, v.n)
}

// Key returns a string usable as a map key. Vectors are equal iff
// their Keys are equal (length is encoded alongside the bits).
func (v *Vector) Key() string {
	var sb strings.Builder
	sb.Grow(len(v.data) + 2)
	sb.WriteByte(byte(v.n >> 8))
	sb.WriteByte(byte(v.n))
	sb.Write(v.data)
	return sb.String()
}

// String renders the vector as a binary string, MSB first.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// clearTail zeroes the unused bits of the final byte so that backing
// stores of equal vectors compare equal.
func (v *Vector) clearTail() {
	if r := v.n & 7; r != 0 && len(v.data) > 0 {
		v.data[len(v.data)-1] &= byte(0xFF) << (8 - uint(r))
	}
}
