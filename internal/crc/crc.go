package crc

import (
	"fmt"

	"zipline/internal/bitvec"
)

// MaxWidth is the widest supported CRC. Table 1 of the paper stops at
// m = 15; we allow up to 31 so that the BCH extension can reuse the
// engine.
const MaxWidth = 31

// Engine computes width-m CRCs for a fixed generator polynomial.
// It is safe for concurrent use after construction.
type Engine struct {
	width int
	param uint32 // generator low bits, i.e. g(x) - x^m
	full  uint32 // g(x) including the x^m term
	mask  uint32 // m low bits set
	tab   [256]uint32
	// Slicing tables for the 8-byte block path: tab0[v] = rem(v) and
	// tab8[k][v] = rem(v·x^{8(k+1)}). A 64-bit block contributes eight
	// data bytes at x^8..x^56 (k = 0..6 plus tab0 for the last byte)
	// and the four carried remainder bytes land at x^64..x^88
	// (k = 7..10), so eleven shifted tables cover every term.
	tab0 [256]uint32
	tab8 [11][256]uint32
}

// New returns an engine for the width-m generator polynomial
// g(x) = x^m + param(x), where bit i of param is the coefficient of
// x^i. For example the Hamming(7,4) generator x^3 + x + 1 is
// New(3, 0b011).
func New(width int, param uint32) (*Engine, error) {
	if width < 1 || width > MaxWidth {
		return nil, fmt.Errorf("crc: width %d out of range [1,%d]", width, MaxWidth)
	}
	if param>>uint(width) != 0 {
		return nil, fmt.Errorf("crc: parameter %#x wider than %d bits", param, width)
	}
	if param&1 == 0 {
		// A generator with zero constant term is divisible by x; it
		// cannot detect low-order errors and breaks the x-inverse
		// used in decoding. All Hamming/BCH generators have g(0)=1.
		return nil, fmt.Errorf("crc: parameter %#x has zero constant term", param)
	}
	e := &Engine{
		width: width,
		param: param,
		full:  1<<uint(width) | param,
		mask:  1<<uint(width) - 1,
	}
	// tab[h] = rem(h(x)·x^m / g): the contribution of the remainder
	// bits that overflow when eight new message bits are appended.
	// Built by feeding the eight bits of h followed by m zeros.
	for h := 0; h < 256; h++ {
		r := uint32(0)
		for i := 7; i >= 0; i-- {
			r = e.shiftInBit(r, h>>uint(i)&1 == 1)
		}
		for i := 0; i < width; i++ {
			r = e.shiftInBit(r, false)
		}
		e.tab[h] = r
	}
	// Slicing tables: reduce each byte value, then walk it up eight
	// bit positions per table. tab0 is the identity for width ≥ 8
	// (a degree-<8 polynomial is already reduced) and a true
	// reduction for narrower generators.
	for v := 0; v < 256; v++ {
		r := uint32(0)
		for i := 7; i >= 0; i-- {
			r = e.shiftInBit(r, v>>uint(i)&1 == 1)
		}
		e.tab0[v] = r
		for k := 0; k < len(e.tab8); k++ {
			for i := 0; i < 8; i++ {
				r = e.shiftInBit(r, false)
			}
			e.tab8[k][v] = r
		}
	}
	return e, nil
}

// MustNew is New, panicking on error. For registry initialisers.
func MustNew(width int, param uint32) *Engine {
	e, err := New(width, param)
	if err != nil {
		panic(err)
	}
	return e
}

// Param returns the generator's low bits (the Table 1 "parameter for
// CRC-m" column value).
func (e *Engine) Param() uint32 { return e.param }

// Generator returns the full generator polynomial including the x^m
// term, as a bit mask.
func (e *Engine) Generator() uint32 { return e.full }

// shiftInBit appends one message bit: r' = rem((r·x + b) mod g).
func (e *Engine) shiftInBit(r uint32, b bool) uint32 {
	top := r >> uint(e.width-1) & 1
	r = r << 1 & e.mask
	if b {
		r |= 1
	}
	if top == 1 {
		r ^= e.param
	}
	return r
}

// Remainder computes B(x) mod g(x) over the first nbits of data,
// MSB first. Eight-byte blocks take the slicing path (twelve
// independent table lookups XORed together, no loop-carried
// dependency inside a block); remaining complete bytes use the
// byte table; a trailing partial byte is folded bit by bit.
//
//zipline:noalloc
func (e *Engine) Remainder(data []byte, nbits int) uint32 {
	if nbits > len(data)*8 {
		panic(fmt.Sprintf("crc: %d bits requested, %d available", nbits, len(data)*8))
	}
	var r uint32
	i := 0
	// Slicing-by-8: appending 64 bits turns the state into
	// r·x^64 + D, a 96-bit polynomial whose twelve bytes reduce
	// through one shifted table each.
	for ; nbits-i >= 64; i += 64 {
		p := data[i>>3:]
		_ = p[7] // one bounds check for the block
		r = e.tab8[10][byte(r>>24)] ^
			e.tab8[9][byte(r>>16)] ^
			e.tab8[8][byte(r>>8)] ^
			e.tab8[7][byte(r)] ^
			e.tab8[6][p[0]] ^
			e.tab8[5][p[1]] ^
			e.tab8[4][p[2]] ^
			e.tab8[3][p[3]] ^
			e.tab8[2][p[4]] ^
			e.tab8[1][p[5]] ^
			e.tab8[0][p[6]] ^
			e.tab0[p[7]]
	}
	for ; nbits-i >= 8; i += 8 {
		r = e.appendByte(r, data[i>>3])
	}
	if t := nbits - i; t > 0 {
		// Trailing partial byte: append the t bits padded to a full
		// byte with zeros (one table step computes rem((R·x^t ⊕ v)·
		// x^{8-t})), then divide the x^{8-t} pad back out — g(0) = 1
		// makes x invertible, so UnshiftN is exact.
		r = e.appendByte(r, data[i>>3]&(0xFF<<uint(8-t)))
		r = e.UnshiftN(r, 8-t)
	}
	return r
}

// appendByte returns the remainder after appending eight message bits:
// rem(r·x^8 + b). The top 8 bits of r·x^8 (at positions m..m+7) reduce
// through the table; the rest shift up in place.
//
//zipline:noalloc
func (e *Engine) appendByte(r uint32, b byte) uint32 {
	if e.width >= 8 {
		hi := r >> uint(e.width-8)
		return (r<<8|uint32(b))&e.mask ^ e.tab[hi]
	}
	// r is narrower than a byte: everything overflows.
	hi := r<<uint(8-e.width) | uint32(b)>>uint(e.width)
	return uint32(b)&e.mask ^ e.tab[hi&0xFF]
}

// RemainderVector computes the CRC of a bit vector.
func (e *Engine) RemainderVector(v *bitvec.Vector) uint32 {
	return e.Remainder(v.Bytes(), v.Len())
}

// remainderBitwise is the reference implementation: one shift per
// message bit. Exposed to tests through export_test.go.
func (e *Engine) remainderBitwise(data []byte, nbits int) uint32 {
	var r uint32
	for i := 0; i < nbits; i++ {
		r = e.shiftInBit(r, data[i>>3]>>(7-uint(i&7))&1 == 1)
	}
	return r
}

// Shift returns rem(r·x mod g): one step of the CRC LFSR with a zero
// input bit.
func (e *Engine) Shift(r uint32) uint32 { return e.shiftInBit(r&e.mask, false) }

// ShiftN returns rem(r·x^n mod g). Whole bytes of shift take one
// table step each (appending a zero byte is exactly r·x^8 mod g).
//
//zipline:noalloc
func (e *Engine) ShiftN(r uint32, n int) uint32 {
	r &= e.mask
	for ; n >= 8; n -= 8 {
		r = e.appendByte(r, 0)
	}
	for i := 0; i < n; i++ {
		r = e.Shift(r)
	}
	return r
}

// Unshift returns rem(r·x^{-1} mod g), the inverse of Shift. It is
// well defined because g(0) = 1.
func (e *Engine) Unshift(r uint32) uint32 {
	r &= e.mask
	if r&1 == 1 {
		r ^= e.full
	}
	return r >> 1
}

// UnshiftN returns rem(r·x^{-n} mod g).
func (e *Engine) UnshiftN(r uint32, n int) uint32 {
	for i := 0; i < n; i++ {
		r = e.Unshift(r)
	}
	return r
}

// PowX returns rem(x^j mod g). Successive values of PowX enumerate
// the columns of the Hamming parity-check matrix H; the syndrome
// lookup table of paper Figure 1 is exactly {PowX(j) → bit j}.
func (e *Engine) PowX(j int) uint32 {
	if j < 0 {
		panic("crc: negative exponent")
	}
	r := uint32(1)
	// Square-and-multiply over GF(2)[x]/g keeps trace generation
	// cheap even for j near 2^15.
	for bit := 30; bit >= 0; bit-- {
		r = e.MulMod(r, r)
		if j>>uint(bit)&1 == 1 {
			r = e.Shift(r)
		}
	}
	return r
}

// MulMod returns rem(a(x)·b(x) mod g): carry-less multiplication
// followed by reduction. Used by PowX and by the BCH extension.
func (e *Engine) MulMod(a, b uint32) uint32 {
	a &= e.mask
	b &= e.mask
	var r uint32
	for b != 0 {
		if b&1 == 1 {
			r ^= a
		}
		a = e.Shift(a)
		b >>= 1
	}
	return r
}

// Matrix returns the CRC as a linear operator: row j (0-based from
// the lowest degree) is rem(x^j), so that
// CRC(B) = XOR over set bits b_j of Matrix()[j].
// This is the matrix form CRC(B) = B·Hᵀ from paper §2; tests assert
// it agrees with Remainder on random inputs.
func (e *Engine) Matrix(nbits int) []uint32 {
	rows := make([]uint32, nbits)
	r := uint32(1)
	for j := 0; j < nbits; j++ {
		rows[j] = r
		r = e.Shift(r)
	}
	return rows
}

// RemainderByMatrix computes the CRC using the precomputed matrix
// rows; it exists to demonstrate and test the XOR-of-columns
// formulation that the paper uses to explain the Tofino
// implementation.
func RemainderByMatrix(rows []uint32, data []byte, nbits int) uint32 {
	if nbits > len(rows) {
		panic("crc: matrix smaller than message")
	}
	var r uint32
	for i := 0; i < nbits; i++ {
		// Bit i in wire order is the coefficient of x^{nbits-1-i}.
		if data[i>>3]>>(7-uint(i&7))&1 == 1 {
			r ^= rows[nbits-1-i]
		}
	}
	return r
}
