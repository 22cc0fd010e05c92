package gd

import (
	"fmt"

	"zipline/internal/bitvec"
	"zipline/internal/hamming"
)

// Transform is an invertible mapping from a fixed-width data word to
// a (basis, deviation) pair. Implementations must satisfy, for every
// word w of WordBits bits:
//
//	Merge(Split(w)) == w
//
// and Split must be total (defined for every input word).
// Implementations are safe for concurrent use.
type Transform interface {
	// WordBits is the input word length in bits.
	WordBits() int
	// BasisBits is the basis length in bits; BasisBits < WordBits
	// for any transform that can compress.
	BasisBits() int
	// DeviationBits is the deviation width in bits (≤ 32).
	DeviationBits() int
	// Split maps a word to its basis and deviation.
	Split(word *bitvec.Vector) (basis *bitvec.Vector, deviation uint32)
	// Merge reconstructs the word from a basis and deviation. It
	// returns an error if the deviation is not a value Split can
	// produce (e.g. an out-of-range syndrome).
	Merge(basis *bitvec.Vector, deviation uint32) (*bitvec.Vector, error)
	// String describes the transform for logs and reports.
	String() string
}

// Hamming is the paper's transformation function: the deviation is
// the word's Hamming syndrome (computable as a CRC on Tofino), and
// the basis is the message part of the codeword obtained by flipping
// the single bit the syndrome identifies.
type Hamming struct {
	code *hamming.Code
}

// NewHamming builds the Hamming transform for a given code.
func NewHamming(code *hamming.Code) *Hamming { return &Hamming{code: code} }

// NewHammingM builds the Hamming transform for the default Table 1
// polynomial with m parity bits.
func NewHammingM(m int) (*Hamming, error) {
	code, err := hamming.ByM(m)
	if err != nil {
		return nil, err
	}
	return NewHamming(code), nil
}

// Code exposes the underlying Hamming code.
func (h *Hamming) Code() *hamming.Code { return h.code }

// WordBits returns n = 2^m − 1.
func (h *Hamming) WordBits() int { return h.code.N() }

// BasisBits returns k = 2^m − m − 1.
func (h *Hamming) BasisBits() int { return h.code.K() }

// DeviationBits returns the syndrome width m.
func (h *Hamming) DeviationBits() int { return h.code.M() }

// Split implements paper Figure 1 steps ➋–➎: compute the syndrome,
// flip the bit it identifies, truncate to the rightmost k bits.
func (h *Hamming) Split(word *bitvec.Vector) (*bitvec.Vector, uint32) {
	s := h.code.SyndromeVector(word)
	cw := word
	if pos := h.code.ErrorPosition(s); pos >= 0 {
		cw = word.Clone()
		cw.Flip(pos)
	}
	return cw.Slice(h.code.M(), h.code.K()), s
}

// Merge implements paper Figure 2 steps ➌–➐: restore the parity bits
// by feeding the zero-padded basis through the same CRC, then flip
// the bit the deviation identifies.
func (h *Hamming) Merge(basis *bitvec.Vector, deviation uint32) (*bitvec.Vector, error) {
	if basis.Len() != h.code.K() {
		return nil, fmt.Errorf("gd: basis length %d != k=%d", basis.Len(), h.code.K())
	}
	if deviation >= 1<<uint(h.code.M()) {
		return nil, fmt.Errorf("gd: deviation %#x wider than m=%d bits", deviation, h.code.M())
	}
	p := h.code.Parity(basis)
	w := bitvec.NewWriter((h.code.N() + 7) / 8)
	w.WriteUint(uint64(p), h.code.M())
	w.WriteVector(basis)
	word := bitvec.FromBytes(w.Bytes(), h.code.N())
	if pos := h.code.ErrorPosition(deviation); pos >= 0 {
		word.Flip(pos)
	}
	return word, nil
}

// String implements fmt.Stringer.
func (h *Hamming) String() string {
	return fmt.Sprintf("gd-hamming(%d,%d)", h.code.N(), h.code.K())
}

// LowBits extracts the d lowest-order (rightmost) bits of the word as
// the deviation and keeps the rest as the basis. For time-series data
// whose low bits are sensor noise this clusters readings onto shared
// bases directly — the simplest member of the bit-swapping family the
// paper cites as future work [37].
type LowBits struct {
	Bits int // word length
	Dev  int // deviation width, 1..32
}

// WordBits returns the configured word length.
func (t LowBits) WordBits() int { return t.Bits }

// BasisBits returns WordBits − Dev.
func (t LowBits) BasisBits() int { return t.Bits - t.Dev }

// DeviationBits returns the configured deviation width.
func (t LowBits) DeviationBits() int { return t.Dev }

// Split cuts the word: basis = leading bits, deviation = trailing
// Dev bits.
func (t LowBits) Split(word *bitvec.Vector) (*bitvec.Vector, uint32) {
	if word.Len() != t.Bits {
		panic(fmt.Sprintf("gd: word length %d != %d", word.Len(), t.Bits))
	}
	basis := word.Slice(0, t.Bits-t.Dev)
	dev := uint32(word.Slice(t.Bits-t.Dev, t.Dev).Uint())
	return basis, dev
}

// Merge concatenates basis and deviation back together.
func (t LowBits) Merge(basis *bitvec.Vector, deviation uint32) (*bitvec.Vector, error) {
	if basis.Len() != t.Bits-t.Dev {
		return nil, fmt.Errorf("gd: basis length %d != %d", basis.Len(), t.Bits-t.Dev)
	}
	if t.Dev < 32 && deviation >= 1<<uint(t.Dev) {
		return nil, fmt.Errorf("gd: deviation %#x wider than %d bits", deviation, t.Dev)
	}
	w := bitvec.NewWriter((t.Bits + 7) / 8)
	w.WriteVector(basis)
	w.WriteUint(uint64(deviation), t.Dev)
	return bitvec.FromBytes(w.Bytes(), t.Bits), nil
}

// String implements fmt.Stringer.
func (t LowBits) String() string { return fmt.Sprintf("lowbits(%d,%d)", t.Bits, t.Dev) }
