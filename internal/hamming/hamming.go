package hamming

import (
	"fmt"
	"sync"

	"zipline/internal/bitvec"
	"zipline/internal/crc"
)

// MinM and MaxM bound the supported code sizes; they cover every row
// of paper Table 1.
const (
	MinM = 3
	MaxM = 15
)

// Spec describes one row of paper Table 1: a Hamming(n, k) code, its
// generator polynomial and the parameter to program into a CRC-m
// engine.
type Spec struct {
	M     int    // parity bits; n = 2^m − 1, k = n − m
	Param uint32 // generator low bits: g(x) − x^m
	// Poly is the human-readable generator polynomial.
	Poly string
	// PaperParam is the "Parameter for CRC-m" value as printed in
	// Table 1 of the paper. For the two (511, 502) rows the printed
	// value disagrees with the printed polynomial (and is not
	// primitive, so it cannot realise a Hamming code); Param holds
	// the value derived from the polynomial, PaperParam what the
	// paper printed; `zipline-bench -run table1` prints both and
	// flags the two rows.
	PaperParam uint32
	// Alternate marks the second listed polynomial for code sizes
	// with two rows; ByM selects the non-alternate row.
	Alternate bool
}

// N returns the code length 2^m − 1.
func (s Spec) N() int { return 1<<uint(s.M) - 1 }

// K returns the message length 2^m − m − 1.
func (s Spec) K() int { return s.N() - s.M }

// Table1 reproduces paper Table 1: generator polynomials for Hamming
// codes and parameters for a CRC-m, for every m in 3..15.
var Table1 = []Spec{
	{M: 3, Param: 0x3, Poly: "x^3+x+1", PaperParam: 0x3},
	{M: 4, Param: 0x3, Poly: "x^4+x+1", PaperParam: 0x3},
	{M: 5, Param: 0x05, Poly: "x^5+x^2+1", PaperParam: 0x05},
	{M: 5, Param: 0x17, Poly: "x^5+x^4+x^2+x+1", PaperParam: 0x17, Alternate: true},
	{M: 6, Param: 0x03, Poly: "x^6+x+1", PaperParam: 0x03},
	{M: 7, Param: 0x09, Poly: "x^7+x^3+1", PaperParam: 0x09},
	{M: 8, Param: 0x1D, Poly: "x^8+x^4+x^3+x^2+1", PaperParam: 0x1D},
	{M: 9, Param: 0x011, Poly: "x^9+x^4+1", PaperParam: 0x00D},
	{M: 9, Param: 0x1E3, Poly: "x^9+x^8+x^7+x^6+x^5+x+1", PaperParam: 0x0F3, Alternate: true},
	{M: 10, Param: 0x009, Poly: "x^10+x^3+1", PaperParam: 0x009},
	{M: 11, Param: 0x005, Poly: "x^11+x^2+1", PaperParam: 0x005},
	{M: 12, Param: 0x053, Poly: "x^12+x^6+x^4+x+1", PaperParam: 0x053},
	{M: 13, Param: 0x01B, Poly: "x^13+x^4+x^3+x+1", PaperParam: 0x01B},
	{M: 14, Param: 0x143, Poly: "x^14+x^8+x^6+x+1", PaperParam: 0x143},
	{M: 15, Param: 0x003, Poly: "x^15+x+1", PaperParam: 0x003},
}

// SpecByM returns the default (non-alternate) Table 1 row for m.
func SpecByM(m int) (Spec, error) {
	for _, s := range Table1 {
		if s.M == m && !s.Alternate {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("hamming: no Table 1 entry for m=%d (supported %d..%d)", m, MinM, MaxM)
}

// Code is a ready-to-use Hamming(n, k) code. It is safe for
// concurrent use after construction.
type Code struct {
	m, n, k int
	eng     *crc.Engine
	// synToPos[s] is the wire position of the single-bit error whose
	// syndrome is s, or -1 for s == 0 (no error). This is the
	// "syndrome look-up table" of paper Figures 1 and 2, precomputed
	// at init just as the paper precomputes P4 table entries with
	// Boost.CRC.
	synToPos []int32
	// parityTab[j][b] is message byte j's contribution to the parity
	// rem(M(x)·x^m): a table per byte position turns ParityBytes into
	// ceil(k/8) independent lookups XORed together — no loop-carried
	// LFSR state, which is what makes the decode-side merge fast. The
	// last byte's table masks the tail padding bits.
	parityTab [][256]uint32
}

// New constructs the Hamming code generated by
// g(x) = x^m + param(x). It validates that g is primitive — i.e.
// that the 2^m − 1 single-bit syndromes are distinct and non-zero —
// and returns an error otherwise (a non-primitive generator cannot
// realise a Hamming code; the paper's printed parameter for
// (511, 502) fails this check).
func New(m int, param uint32) (*Code, error) {
	if m < MinM || m > MaxM {
		return nil, fmt.Errorf("hamming: m=%d out of range [%d,%d]", m, MinM, MaxM)
	}
	eng, err := crc.New(m, param)
	if err != nil {
		return nil, fmt.Errorf("hamming: %w", err)
	}
	n := 1<<uint(m) - 1
	c := &Code{m: m, n: n, k: n - m, eng: eng, synToPos: make([]int32, n+1)}
	for i := range c.synToPos {
		c.synToPos[i] = -1
	}
	r := uint32(1) // rem(x^0)
	for j := 0; j < n; j++ {
		if r == 0 || c.synToPos[r] != -1 {
			return nil, fmt.Errorf("hamming: generator %#x of degree %d is not primitive (syndrome collision at x^%d)", param, m, j)
		}
		// Polynomial degree j sits at wire position n-1-j.
		c.synToPos[r] = int32(n - 1 - j)
		r = eng.Shift(r)
	}
	if r != 1 {
		return nil, fmt.Errorf("hamming: generator %#x of degree %d has period > %d", param, m, n)
	}
	c.buildParityTab()
	return c, nil
}

// buildParityTab precomputes the per-byte parity tables. Message byte
// j of a k-bit message, MSB first, has its least significant bit at
// exponent m+k-8-8j of rem(M·x^m); the table entry is that byte's
// polynomial shifted there and reduced. For the final byte the
// exponent can be negative (padding wider than m), where the exact
// inverse x^{-1} steps divide the overshoot back out.
func (c *Code) buildParityTab() {
	nb := (c.k + 7) / 8
	pad := 8*nb - c.k
	c.parityTab = make([][256]uint32, nb)
	// Last byte: tail padding masked out, exponent m-pad (negative when
	// the padding is wider than m).
	for b := 0; b < 256; b++ {
		r := c.eng.Remainder([]byte{byte(b) & byte(0xFF<<uint(pad))}, 8)
		if e := c.m - pad; e >= 0 {
			r = c.eng.ShiftN(r, e)
		} else {
			r = c.eng.UnshiftN(r, -e)
		}
		c.parityTab[nb-1][b] = r
	}
	if nb == 1 {
		return
	}
	// Byte nb-2 sits eight bits higher than the last byte's first valid
	// bit; every earlier byte is one more x^8 step, so the remaining
	// tables chain by single byte-shifts instead of full reductions.
	for b := 0; b < 256; b++ {
		c.parityTab[nb-2][b] = c.eng.ShiftN(c.eng.Remainder([]byte{byte(b)}, 8), c.m-pad+8)
	}
	for j := nb - 3; j >= 0; j-- {
		for b := 0; b < 256; b++ {
			c.parityTab[j][b] = c.eng.ShiftN(c.parityTab[j+1][b], 8)
		}
	}
}

// byM builds each default Table 1 code once, on first use: a Code is
// only read after New, so every codec of one m shares it instead of
// rebuilding the CRC engine and parity tables. Every default row builds
// (TestTable1AllConstructible), so no error is ever memoized; ByM
// answers an m outside MinM..MaxM afresh.
var byM = func() (f [MaxM + 1]func() (*Code, error)) {
	for m := MinM; m <= MaxM; m++ {
		f[m] = sync.OnceValues(func() (*Code, error) {
			s, err := SpecByM(m)
			if err != nil {
				return nil, err
			}
			return New(m, s.Param)
		})
	}
	return f
}()

// ByM returns the code for the default Table 1 polynomial of size m:
// one shared Code per m, built by the first call.
func ByM(m int) (*Code, error) {
	if m < MinM || m > MaxM {
		_, err := SpecByM(m)
		return nil, err
	}
	return byM[m]()
}

// MustByM is ByM, panicking on error.
func MustByM(m int) *Code {
	c, err := ByM(m)
	if err != nil {
		panic(err)
	}
	return c
}

// M returns the number of parity bits (the syndrome width).
func (c *Code) M() int { return c.m }

// N returns the code length in bits.
func (c *Code) N() int { return c.n }

// K returns the message (basis) length in bits.
func (c *Code) K() int { return c.k }

// Engine exposes the underlying CRC engine (the model of the Tofino
// CRC extern programmed with this code's polynomial).
func (c *Code) Engine() *crc.Engine { return c.eng }

// SyndromeVector computes the m-bit syndrome of an n-bit word. It
// equals CRC-m(word) by construction.
func (c *Code) SyndromeVector(v *bitvec.Vector) uint32 {
	if v.Len() != c.n {
		panic(fmt.Sprintf("hamming: word length %d != n=%d", v.Len(), c.n))
	}
	return c.eng.RemainderVector(v)
}

// ErrorPosition maps a syndrome to the wire position of the
// corresponding single-bit error. It returns -1 for syndrome 0
// (already a codeword). This is the syndrome look-up table of paper
// Figures 1/2.
func (c *Code) ErrorPosition(s uint32) int {
	if int(s) >= len(c.synToPos) {
		panic(fmt.Sprintf("hamming: syndrome %#x wider than m=%d", s, c.m))
	}
	return int(c.synToPos[s])
}

// SyndromeOfPosition is the inverse of ErrorPosition: the syndrome
// produced by a single set bit at wire position pos.
func (c *Code) SyndromeOfPosition(pos int) uint32 {
	if pos < 0 || pos >= c.n {
		panic(fmt.Sprintf("hamming: position %d out of range [0,%d)", pos, c.n))
	}
	return c.eng.PowX(c.n - 1 - pos)
}

// Parity computes the m parity bits for a k-bit basis u, such that
// [parity | u] is a codeword: p = rem(u(x)·x^m mod g). This is the
// paper's Figure 2 step ➍ — "zero-pad the recovered basis and feed it
// to the same CRC generator" — which restores the bits truncated by
// the encoder. It works because x^n ≡ 1 (mod g), so multiplying by
// x^m is the same as dividing by x^k.
func (c *Code) Parity(basis *bitvec.Vector) uint32 {
	if basis.Len() != c.k {
		panic(fmt.Sprintf("hamming: basis length %d != k=%d", basis.Len(), c.k))
	}
	return c.eng.ShiftN(c.eng.RemainderVector(basis), c.m)
}

// ParityBytes is Parity over a raw k-bit buffer: one table lookup per
// byte, tail padding ignored.
//
//zipline:noalloc
func (c *Code) ParityBytes(data []byte) uint32 {
	if len(data) == len(c.parityTab) {
		var r uint32
		for j, b := range data {
			r ^= c.parityTab[j][b]
		}
		return r
	}
	return c.eng.ShiftN(c.eng.Remainder(data, c.k), c.m)
}

// Encode produces the n-bit systematic codeword [parity | msg] for a
// k-bit message.
func (c *Code) Encode(msg *bitvec.Vector) *bitvec.Vector {
	p := c.Parity(msg)
	w := bitvec.NewWriter((c.n + 7) / 8)
	w.WriteUint(uint64(p), c.m)
	w.WriteVector(msg)
	return bitvec.FromBytes(w.Bytes(), c.n)
}

// Decode corrects up to one bit error in the received n-bit word and
// returns the k-bit message along with the corrected wire position
// (-1 if the word was already a codeword). The input is not mutated.
func (c *Code) Decode(recv *bitvec.Vector) (msg *bitvec.Vector, fixedPos int) {
	s := c.SyndromeVector(recv)
	fixedPos = c.ErrorPosition(s)
	word := recv
	if fixedPos >= 0 {
		word = recv.Clone()
		word.Flip(fixedPos)
	}
	return word.Slice(c.m, c.k), fixedPos
}

// String implements fmt.Stringer.
func (c *Code) String() string {
	return fmt.Sprintf("Hamming(%d,%d) g=%#x", c.n, c.k, c.eng.Generator())
}
