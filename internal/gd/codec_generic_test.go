package gd

import (
	"bytes"
	"math/rand"
	"testing"
)

// The Hamming transform takes the codec's fast path; these tests pin
// the generic path using the bit-extraction transform.

func TestCodecGenericPathLowBits(t *testing.T) {
	for _, tc := range []struct {
		tr        LowBits
		extraBits int
	}{
		{LowBits{Bits: 253, Dev: 13}, 3}, // 3 extra bits ride along
		{LowBits{Bits: 256, Dev: 16}, 0}, // a whole number of bytes: none
	} {
		c := NewCodec(tc.tr)
		if c.ExtraBits() != tc.extraBits || c.ChunkBytes() != 32 {
			t.Fatalf("%s geometry: extra=%d chunk=%d", tc.tr, c.ExtraBits(), c.ChunkBytes())
		}
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 50; trial++ {
			chunk := make([]byte, 32)
			rng.Read(chunk)
			s, err := c.SplitChunk(chunk)
			if err != nil {
				t.Fatal(err)
			}
			if s.Basis.Len() != 240 {
				t.Fatalf("%s: basis = %d bits", tc.tr, s.Basis.Len())
			}
			out, err := c.MergeChunk(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, chunk) {
				t.Fatalf("%s trial %d: lowbits codec round trip failed", tc.tr, trial)
			}
		}
		if _, err := c.SplitChunk(make([]byte, 31)); err == nil {
			t.Errorf("%s: short chunk accepted", tc.tr)
		}
	}
	// Extra wider than 3 bits must be rejected by the generic merge.
	c := NewCodec(LowBits{Bits: 253, Dev: 13})
	s, _ := c.SplitChunk(make([]byte, 32))
	s.Extra = 0x09
	if _, err := c.MergeChunk(s, nil); err == nil {
		t.Error("oversized extra accepted on generic path")
	}
}

func TestTransformAccessors(t *testing.T) {
	h, err := NewHammingM(8)
	if err != nil {
		t.Fatal(err)
	}
	if h.Code() == nil || h.Code().N() != 255 {
		t.Fatal("Code accessor broken")
	}
	if h.String() == "" || (LowBits{Bits: 8, Dev: 2}).String() == "" {
		t.Fatal("Stringers broken")
	}
	lb := LowBits{Bits: 16, Dev: 5}
	if lb.WordBits() != 16 || lb.BasisBits() != 11 || lb.DeviationBits() != 5 {
		t.Fatal("lowbits geometry broken")
	}
	c := NewCodec(h)
	if c.Transform() != h || c.String() == "" || c.ChunkBits() != 256 || c.DeviationBits() != 8 {
		t.Fatal("codec accessors broken")
	}
	if _, err := NewHammingM(99); err == nil {
		t.Fatal("NewHammingM(99) accepted")
	}
}

func TestLowBitsSplitPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LowBits{Bits: 8, Dev: 2}.Split(randomVector(rand.New(rand.NewSource(1)), 9))
}
