package bch

import (
	"fmt"

	"zipline/internal/bitvec"
	"zipline/internal/crc"
	"zipline/internal/gf2m"
	"zipline/internal/hamming"
)

// Code is a binary BCH(n, k) code with design distance 2t+1.
type Code struct {
	m, n, k, t int
	gen        uint64 // generator polynomial bit mask
	genDeg     int
	field      *gf2m.Field
	eng        *crc.Engine
}

// New constructs the t-error-correcting BCH code of length 2^m − 1,
// using the Table 1 primitive polynomial for GF(2^m). t must be at
// least 1; t = 1 yields the Hamming code.
func New(m, t int) (*Code, error) {
	if t < 1 {
		return nil, fmt.Errorf("bch: t=%d must be ≥ 1", t)
	}
	spec, err := hamming.SpecByM(m)
	if err != nil {
		return nil, fmt.Errorf("bch: %w", err)
	}
	field, err := gf2m.New(m, spec.Param)
	if err != nil {
		return nil, fmt.Errorf("bch: %w", err)
	}
	n := 1<<uint(m) - 1

	// g = lcm of minimal polynomials of α^1, α^3, …, α^{2t−1}.
	// Distinct cyclotomic cosets have coprime minimal polynomials, so
	// the lcm is the product over distinct polynomials.
	gen := uint64(1)
	seen := map[uint64]bool{}
	for j := 1; j <= 2*t-1; j += 2 {
		mp := field.MinimalPoly(j)
		if seen[mp] {
			continue
		}
		seen[mp] = true
		gen = mulPoly(gen, mp)
	}
	genDeg := degree(gen)
	if genDeg >= n {
		return nil, fmt.Errorf("bch: generator degree %d leaves no message bits (m=%d t=%d)", genDeg, m, t)
	}
	if genDeg > 31 {
		return nil, fmt.Errorf("bch: generator degree %d exceeds the 31-bit syndrome limit", genDeg)
	}
	eng, err := crc.New(genDeg, uint32(gen&^(1<<uint(genDeg))))
	if err != nil {
		return nil, fmt.Errorf("bch: %w", err)
	}
	return &Code{
		m: m, n: n, k: n - genDeg, t: t,
		gen: gen, genDeg: genDeg,
		field: field, eng: eng,
	}, nil
}

// N returns the code length in bits.
func (c *Code) N() int { return c.n }

// K returns the message length in bits.
func (c *Code) K() int { return c.k }

// T returns the design error-correction radius.
func (c *Code) T() int { return c.t }

// SyndromeBits returns deg g — the deviation width of the GD
// transform.
func (c *Code) SyndromeBits() int { return c.genDeg }

// Generator returns the generator polynomial as a bit mask.
func (c *Code) Generator() uint64 { return c.gen }

// Syndrome computes rem(word(x) mod g(x)) over an n-bit word.
func (c *Code) Syndrome(v *bitvec.Vector) uint32 {
	if v.Len() != c.n {
		panic(fmt.Sprintf("bch: word length %d != n=%d", v.Len(), c.n))
	}
	return c.eng.RemainderVector(v)
}

// Parity returns the genDeg parity bits p such that [p | u] is a
// codeword, via p = rem(u·x^{deg g}) — the same x^n ≡ 1 trick the
// Hamming decoder uses (g divides x^n − 1 for every cyclic code).
func (c *Code) Parity(basis *bitvec.Vector) uint32 {
	if basis.Len() != c.k {
		panic(fmt.Sprintf("bch: basis length %d != k=%d", basis.Len(), c.k))
	}
	return c.eng.ShiftN(c.eng.RemainderVector(basis), c.genDeg)
}

// ErrorPositions maps a syndrome to the wire positions of the coset
// leader the bounded-distance decoder identifies: 0, 1 or up to t
// positions. ok is false when the syndrome is outside the decoding
// radius (more than t errors); callers then use the canonical
// fallback leader.
func (c *Code) ErrorPositions(s uint32) (pos []int, ok bool) {
	if s == 0 {
		return nil, true
	}
	// Power-sum syndromes S_j = s(α^j), j = 1..2t−1 (odd), extended
	// with the even ones S_{2j} = S_j² required by Berlekamp–Massey.
	S := make([]uint32, 2*c.t+1) // 1-indexed
	for j := 1; j <= 2*c.t; j++ {
		S[j] = c.field.EvalPoly(uint64(s), c.field.Alpha(j))
	}
	sigma := c.berlekampMassey(S)
	deg := len(sigma) - 1
	if deg == 0 {
		return nil, false
	}
	// Chien search: roots of σ(x) among α^{-i}; a root at α^{-i}
	// locates an error at polynomial degree i, wire position n−1−i.
	for i := 0; i < c.n; i++ {
		x := c.field.Alpha(-i)
		var acc uint32
		for d := deg; d >= 0; d-- {
			acc = c.field.Mul(acc, x)
			acc ^= sigma[d]
		}
		if acc == 0 {
			pos = append(pos, c.n-1-i)
		}
	}
	if len(pos) != deg {
		// σ does not split over the field: uncorrectable.
		return nil, false
	}
	return pos, true
}

// berlekampMassey computes the error-locator polynomial
// σ(x) = σ₀ + σ₁x + … (σ₀ = 1) from power-sum syndromes S[1..2t].
func (c *Code) berlekampMassey(S []uint32) []uint32 {
	twoT := len(S) - 1
	sigma := []uint32{1}
	prev := []uint32{1}
	var l int
	shift := 1
	prevDisc := uint32(1)
	for r := 1; r <= twoT; r++ {
		// Discrepancy d = S_r + Σ σ_i S_{r−i}.
		var d uint32
		for i := 0; i <= l && r-i >= 1; i++ {
			if i < len(sigma) {
				d ^= c.field.Mul(sigma[i], S[r-i])
			}
		}
		if d == 0 {
			shift++
			continue
		}
		// sigma' = sigma − (d/prevDisc)·x^shift·prev
		scale := c.field.Div(d, prevDisc)
		next := make([]uint32, maxInt(len(sigma), len(prev)+shift))
		copy(next, sigma)
		for i, p := range prev {
			next[i+shift] ^= c.field.Mul(scale, p)
		}
		if 2*l <= r-1 {
			prev = sigma
			prevDisc = d
			l = r - l
			shift = 1
		} else {
			shift++
		}
		sigma = next
	}
	// Trim trailing zeros.
	last := len(sigma) - 1
	for last > 0 && sigma[last] == 0 {
		last--
	}
	return sigma[:last+1]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mulPoly multiplies two GF(2) polynomials (carry-less).
func mulPoly(a, b uint64) uint64 {
	var out uint64
	for b != 0 {
		if b&1 == 1 {
			out ^= a
		}
		a <<= 1
		b >>= 1
	}
	return out
}

func degree(p uint64) int {
	d := -1
	for i := 0; i < 64; i++ {
		if p>>uint(i)&1 == 1 {
			d = i
		}
	}
	return d
}
