package gd

import (
	"fmt"

	"zipline/internal/bitvec"
	"zipline/internal/hamming"
)

// Codec packages a Transform for byte-aligned chunks. Transform word
// lengths are generally not byte multiples (Hamming: n = 2^m − 1), so
// a chunk is the word plus the minimal number of extra bits that
// reaches a byte boundary; the extra bits ride along verbatim, placed
// at the most significant end of the chunk.
//
// For the paper's m = 8 configuration this reproduces §7 exactly: the
// chunk is 256 bits (32 bytes) and the single extra bit is "the MSB
// of the raw data packet" that ZipLine stores next to the basis.
type Codec struct {
	t         Transform
	code      *hamming.Code // set when t is *Hamming: chunks take the byte path of fastpath.go
	extraBits int           // 0..7, at the MSB end of the chunk
	chunkBits int
}

// Split is the result of encoding one chunk: the dictionary-keyed
// basis plus the per-chunk residue (deviation and extra bits) that a
// packet must carry either way.
type Split struct {
	// Basis is the transform basis — the dictionary key.
	Basis *bitvec.Vector
	// Deviation is the transform deviation (a Hamming syndrome for
	// the paper's transform).
	Deviation uint32
	// Extra holds the chunk's extra MSBs, right-aligned. For the
	// m = 8 configuration this is the single carried MSB.
	Extra uint8
}

// NewCodec wraps a transform. The chunk size is WordBits rounded up
// to the next byte boundary.
func NewCodec(t Transform) *Codec {
	extra := (8 - t.WordBits()&7) & 7
	c := &Codec{t: t, extraBits: extra, chunkBits: t.WordBits() + extra}
	if h, ok := t.(*Hamming); ok {
		c.code = h.code
	}
	return c
}

// Transform returns the wrapped transform.
func (c *Codec) Transform() Transform { return c.t }

// ChunkBytes returns the chunk size in bytes.
func (c *Codec) ChunkBytes() int { return c.chunkBits / 8 }

// ChunkBits returns the chunk size in bits (always a byte multiple).
func (c *Codec) ChunkBits() int { return c.chunkBits }

// ExtraBits returns how many chunk MSBs bypass the transform (the
// paper's carried MSB; 1 for every Hamming configuration).
func (c *Codec) ExtraBits() int { return c.extraBits }

// BasisBits returns the dictionary key width in bits.
func (c *Codec) BasisBits() int { return c.t.BasisBits() }

// DeviationBits returns the deviation width in bits.
func (c *Codec) DeviationBits() int { return c.t.DeviationBits() }

// SplitChunk encodes one chunk of exactly ChunkBytes bytes.
func (c *Codec) SplitChunk(chunk []byte) (Split, error) {
	var s Split
	err := c.SplitChunkInto(chunk, &s)
	return s, err
}

// checkChunk rejects a chunk of the wrong size.
func (c *Codec) checkChunk(chunk []byte) error {
	if len(chunk) != c.ChunkBytes() {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return fmt.Errorf("gd: chunk is %d bytes, codec expects %d", len(chunk), c.ChunkBytes())
	}
	return nil
}

// splitGeneric encodes a chunk through the Transform interface; the
// Hamming transform takes the vector-free path in fastpath.go instead.
func (c *Codec) splitGeneric(chunk []byte, s *Split) error {
	if err := c.checkChunk(chunk); err != nil {
		return err
	}
	word := bitvec.FromBytes(chunk, c.chunkBits)
	if c.extraBits > 0 {
		word = word.Slice(c.extraBits, c.t.WordBits())
	}
	basis, dev := c.t.Split(word)
	*s = Split{Basis: basis, Deviation: dev, Extra: uint8(bitvec.Uint(chunk, 0, c.extraBits))}
	return nil
}

// MergeChunk reconstructs the original chunk, appending it to dst and
// returning the extended slice.
func (c *Codec) MergeChunk(s Split, dst []byte) ([]byte, error) {
	if c.code == nil {
		return c.mergeGeneric(s, dst)
	}
	if s.Basis.Len() != c.code.K() {
		return dst, fmt.Errorf("gd: basis length %d != k=%d", s.Basis.Len(), c.code.K())
	}
	return c.mergeHammingBytes(s.Basis.Bytes(), s.Deviation, s.Extra, dst)
}

// mergeGeneric is splitGeneric's inverse.
func (c *Codec) mergeGeneric(s Split, dst []byte) ([]byte, error) {
	word, err := c.t.Merge(s.Basis, s.Deviation)
	if err != nil {
		return dst, err
	}
	if c.extraBits == 0 {
		return word.AppendBytes(dst), nil
	}
	if s.Extra>>uint(c.extraBits) != 0 {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return dst, fmt.Errorf("gd: extra %#x wider than %d bits", s.Extra, c.extraBits)
	}
	w := bitvec.NewWriter(c.ChunkBytes())
	w.WriteUint(uint64(s.Extra), c.extraBits)
	w.WriteVector(word)
	return append(dst, w.Bytes()...), nil
}

// String implements fmt.Stringer.
func (c *Codec) String() string {
	return fmt.Sprintf("codec{%s, chunk=%dB}", c.t, c.ChunkBytes())
}
