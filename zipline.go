package zipline

import (
	"fmt"

	"zipline/internal/bch"
	"zipline/internal/gd"
	"zipline/internal/hamming"
)

// Config selects a GD operating point. The zero value is the paper's
// deployment: m = 8 (Hamming(255, 247), 32-byte chunks) and 15-bit
// identifiers (32,768 dictionary entries).
type Config struct {
	// M is the Hamming parameter: chunks are 2^M bits, deviations M
	// bits, bases 2^M − M − 1 bits. Valid range 3..15.
	M int
	// IDBits sizes dictionary identifiers. Valid range 1..24.
	IDBits int
	// T is the transform's error radius. 1 (the default) selects the
	// paper's Hamming transform; 2 or 3 select the BCH transforms of
	// the paper's future work (§8): every basis then covers all
	// chunks within T bit flips of its codeword, at the cost of a
	// wider deviation (≤ T·M bits).
	T int
}

func (c Config) withDefaults() Config {
	if c.M == 0 {
		c.M = 8
	}
	if c.IDBits == 0 {
		c.IDBits = 15
	}
	if c.T == 0 {
		c.T = 1
	}
	return c
}

func (c Config) validate() error {
	if c.M < hamming.MinM || c.M > hamming.MaxM {
		return fmt.Errorf("zipline: M=%d out of range [%d,%d]", c.M, hamming.MinM, hamming.MaxM)
	}
	if c.IDBits < 1 || c.IDBits > 24 {
		return fmt.Errorf("zipline: IDBits=%d out of range [1,24]", c.IDBits)
	}
	if c.T < 1 || c.T > 3 {
		return fmt.Errorf("zipline: T=%d out of range [1,3]", c.T)
	}
	return nil
}

// Split is the GD decomposition of one chunk.
type Split struct {
	// Basis is the dictionary key: BasisBits() bits, packed MSB-first
	// into ceil(BasisBits/8) bytes with zero tail padding.
	Basis []byte
	// Deviation is the Hamming syndrome (M bits): which single bit
	// separates the chunk from its basis's codeword.
	Deviation uint32
	// Extra is the carried chunk MSB (the paper's "one additional
	// bit to store the MSB of the raw data packet").
	Extra uint8
}

// Codec performs chunk-level generalized deduplication. Safe for
// concurrent use.
type Codec struct {
	cfg   Config
	inner *gd.Codec
}

// NewCodec builds a codec for the configuration.
func NewCodec(cfg Config) (*Codec, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var tr gd.Transform
	if cfg.T == 1 {
		h, err := gd.NewHammingM(cfg.M)
		if err != nil {
			return nil, err
		}
		tr = h
	} else {
		b, err := bch.NewTransform(cfg.M, cfg.T)
		if err != nil {
			return nil, err
		}
		tr = b
	}
	return &Codec{cfg: cfg, inner: gd.NewCodec(tr)}, nil
}

// MustCodec is NewCodec, panicking on error.
func MustCodec(cfg Config) *Codec {
	c, err := NewCodec(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the codec's configuration with defaults applied.
func (c *Codec) Config() Config { return c.cfg }

// ChunkSize returns the chunk size in bytes (2^(M−3)).
func (c *Codec) ChunkSize() int { return c.inner.ChunkBytes() }

// BasisBits returns the basis width in bits (2^M − M − 1).
func (c *Codec) BasisBits() int { return c.inner.BasisBits() }

// DeviationBits returns the deviation width in bits (M).
func (c *Codec) DeviationBits() int { return c.inner.DeviationBits() }

// Split decomposes one chunk of exactly ChunkSize bytes.
func (c *Codec) Split(chunk []byte) (Split, error) {
	var s Split
	err := c.SplitInto(chunk, &s)
	return s, err
}

// SplitInto is Split with caller-owned storage: the basis bits are
// written into s.Basis, reusing its capacity append-style. Reusing
// one Split across a loop makes the encode path allocation-free; the
// Codec itself stays safe for concurrent use because all scratch
// state lives in the caller's Split.
func (c *Codec) SplitInto(chunk []byte, s *Split) error {
	basis, dev, extra, err := c.inner.SplitChunkBytes(chunk, s.Basis)
	if err != nil {
		return err
	}
	s.Basis, s.Deviation, s.Extra = basis, dev, extra
	return nil
}

// Merge reconstructs the chunk from a Split, appending to dst. When
// dst has spare capacity the call allocates nothing.
func (c *Codec) Merge(s Split, dst []byte) ([]byte, error) {
	if len(s.Basis) != (c.BasisBits()+7)/8 {
		return dst, fmt.Errorf("zipline: basis is %d bytes, want %d", len(s.Basis), (c.BasisBits()+7)/8)
	}
	return c.inner.MergeChunkBytes(s.Basis, s.Deviation, s.Extra, dst)
}
