package gd

import (
	"encoding/binary"
	"fmt"
	"slices"

	"zipline/internal/bitvec"
)

// The Hamming transform's path over chunk bytes: no bit vector is built
// and nothing moves a bit at a time on the hot encode and decode paths;
// correctness is pinned to the generic implementation by the property
// tests in fastpath_test.go.
//
// The key identity: a chunk is extra·x^n ⊕ B(x) as a 2^m-bit
// polynomial, and x^n ≡ 1 (mod g), so
//
//	CRC(chunk, 2^m bits) = CRC(B) ⊕ extra
//
// letting the syndrome be computed over the whole byte-aligned chunk
// in one table-driven pass — exactly what ZipLine's P4 program does
// with the Tofino CRC extern over the full payload container.
//
// Each direction has one body, splitHamming and mergeHammingBytes
// (four 64-bit words for m = 8). The exported shapes differ only in who
// owns the basis storage: SplitChunkBytes takes a raw scratch slice
// (the stream, the switch and the public Codec), SplitChunkInto the
// bytes under the caller's Split.Basis (trace and workload analysis),
// and SplitChunk / MergeChunk in codec.go wrap it for one-shot callers.

// SplitChunkInto is SplitChunk writing into a caller-owned Split,
// reusing s.Basis's storage when it has capacity. Repeated calls with
// the same Split allocate nothing on the Hamming fast path.
// The previous contents of s are overwritten; bases handed to a
// Dictionary are copied on insert, so reuse is safe.
//
//zipline:noalloc
func (c *Codec) SplitChunkInto(chunk []byte, s *Split) error {
	if c.code == nil {
		return c.splitGeneric(chunk, s)
	}
	if err := c.checkChunk(chunk); err != nil {
		return err
	}
	if s.Basis == nil {
		s.Basis = bitvec.New(c.code.K())
	} else {
		s.Basis.Reset(c.code.K())
	}
	s.Deviation, s.Extra = c.splitHamming(chunk, s.Basis.Bytes())
	return nil
}

// SplitChunkBytes is SplitChunk without bit vectors: the basis bits
// land in basis, whose capacity is reused append-style (pass the
// previous return value, or nil on first use). The returned slice is
// exactly ceil(BasisBits/8) bytes with zero tail padding.
//
//zipline:noalloc
func (c *Codec) SplitChunkBytes(chunk, basis []byte) (basisOut []byte, deviation uint32, extra uint8, err error) {
	if c.code == nil {
		var s Split
		if err := c.splitGeneric(chunk, &s); err != nil {
			return basis, 0, 0, err
		}
		return append(basis[:0], s.Basis.Bytes()...), s.Deviation, s.Extra, nil
	}
	if err := c.checkChunk(chunk); err != nil {
		return basis, 0, 0, err
	}
	nb := (c.code.K() + 7) / 8
	basis = slices.Grow(basis[:0], nb)[:nb]
	deviation, extra = c.splitHamming(chunk, basis)
	return basis, deviation, extra, nil
}

// splitHamming encodes one chunk of ChunkBytes bytes into basis, which
// must be ceil(k/8) bytes (their contents are overwritten, tail padding
// zeroed), and returns the syndrome and the carried MSB.
func (c *Codec) splitHamming(chunk, basis []byte) (syn uint32, extra uint8) {
	code := c.code
	extra = chunk[0] >> 7
	syn = code.Engine().Remainder(chunk, c.chunkBits) ^ uint32(extra)
	// Extract the basis (word positions m..n-1, i.e. chunk bit
	// offset 1+m), then flip the syndrome-indicated bit if it landed
	// inside the basis range; flips in the parity range vanish with
	// the truncation.
	if code.M() == 8 && c.chunkBits == 256 {
		// mergeHammingBytes's four words in reverse: the zeros shifted
		// in behind the basis become basis[30]'s padding LSB.
		u0 := binary.BigEndian.Uint64(chunk[0:8])
		u1 := binary.BigEndian.Uint64(chunk[8:16])
		u2 := binary.BigEndian.Uint64(chunk[16:24])
		u3 := binary.BigEndian.Uint64(chunk[24:32])
		w2 := u2<<9 | u3>>55
		binary.BigEndian.PutUint64(basis[0:8], u0<<9|u1>>55)
		binary.BigEndian.PutUint64(basis[8:16], u1<<9|u2>>55)
		binary.BigEndian.PutUint64(basis[16:24], w2)
		binary.BigEndian.PutUint64(basis[23:31], w2<<56|u3<<9>>8)
	} else {
		basis[len(basis)-1] = 0 // CopyBits leaves the padding bits alone
		bitvec.CopyBits(basis, 0, chunk, 1+code.M(), code.K())
	}
	if pos := code.ErrorPosition(syn); pos >= 0 {
		if rel := pos - code.M(); rel >= 0 {
			basis[rel>>3] ^= 1 << (7 - uint(rel&7))
		}
	}
	return syn, extra
}

// MergeChunkBytes is MergeChunk on a raw basis buffer: basis must be
// ceil(BasisBits/8) bytes (tail padding bits are ignored). The chunk
// is appended to dst in place; when dst has spare capacity the call
// allocates nothing.
//
//zipline:noalloc
func (c *Codec) MergeChunkBytes(basis []byte, deviation uint32, extra uint8, dst []byte) ([]byte, error) {
	if c.code != nil && len(basis) == (c.code.K()+7)/8 {
		return c.mergeHammingBytes(basis, deviation, extra, dst)
	}
	if len(basis) != (c.t.BasisBits()+7)/8 {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return dst, fmt.Errorf("gd: basis is %d bytes, want %d", len(basis), (c.t.BasisBits()+7)/8)
	}
	return c.mergeGeneric(Split{
		Basis:     bitvec.FromBytes(basis, c.t.BasisBits()),
		Deviation: deviation,
		Extra:     extra,
	}, dst)
}

// mergeHammingBytes rebuilds one chunk in dst's grown tail from a
// basis of ceil(k/8) bytes.
func (c *Codec) mergeHammingBytes(basis []byte, deviation uint32, extra uint8, dst []byte) ([]byte, error) {
	code := c.code
	if deviation >= 1<<uint(code.M()) {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return dst, fmt.Errorf("gd: deviation %#x wider than m=%d bits", deviation, code.M())
	}
	if extra > 1 {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return dst, fmt.Errorf("gd: extra %#x wider than 1 bit", extra)
	}
	p := code.ParityBytes(basis)

	// Build the chunk directly in dst's grown tail.
	base := len(dst)
	dst = slices.Grow(dst, c.ChunkBytes())[:base+c.ChunkBytes()]
	chunk := dst[base:]
	if code.M() == 8 && c.chunkBits == 256 {
		// Paper §7 configuration (the perf-critical one): the 256-bit
		// chunk is extra | 8 parity bits | 247 basis bits, assembled as
		// four 64-bit words — the basis slides right nine bit positions
		// through shifted word pairs, and basis[30]'s padding LSB falls
		// off the end.
		u0 := binary.BigEndian.Uint64(basis[0:8])
		u1 := binary.BigEndian.Uint64(basis[8:16])
		u2 := binary.BigEndian.Uint64(basis[16:24])
		u3 := binary.BigEndian.Uint64(basis[23:31]) << 8
		binary.BigEndian.PutUint64(chunk[0:8], uint64(extra)<<63|uint64(p)<<55|u0>>9)
		binary.BigEndian.PutUint64(chunk[8:16], u0<<55|u1>>9)
		binary.BigEndian.PutUint64(chunk[16:24], u1<<55|u2>>9)
		binary.BigEndian.PutUint64(chunk[24:32], u2<<55|u3>>9)
	} else {
		// extra and the m parity bits lead the chunk, the basis follows.
		clear(chunk)
		bitvec.PutUint(chunk, 0, uint64(extra)<<uint(code.M())|uint64(p), 1+code.M())
		bitvec.CopyBits(chunk, 1+code.M(), basis, 0, code.K())
	}
	// Re-introduce the deviation bit.
	if pos := code.ErrorPosition(deviation); pos >= 0 {
		cp := pos + 1
		chunk[cp>>3] ^= 1 << (7 - uint(cp&7))
	}
	return dst, nil
}
