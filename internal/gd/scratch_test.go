package gd

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestScratchAPIsMatchAllocating pins the scratch-buffer encode and
// decode paths (SplitChunkInto, SplitChunkBytes, MergeChunkBytes) to
// the allocating SplitChunk/MergeChunk across transforms, with every
// scratch deliberately reused between trials so stale state would
// surface.
func TestScratchAPIsMatchAllocating(t *testing.T) {
	transforms := []Transform{
		mustHamming(3), mustHamming(5), mustHamming(8),
		LowBits{Bits: 64, Dev: 5},
	}
	for _, tr := range transforms {
		c := NewCodec(tr)
		rng := rand.New(rand.NewSource(int64(c.ChunkBits())))
		var into Split
		var basisBuf []byte
		dst := make([]byte, 0, 4*c.ChunkBytes())
		for trial := 0; trial < 100; trial++ {
			chunk := make([]byte, c.ChunkBytes())
			rng.Read(chunk)

			want, err := c.SplitChunk(chunk)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SplitChunkInto(chunk, &into); err != nil {
				t.Fatalf("%s trial %d: SplitChunkInto: %v", tr, trial, err)
			}
			if !into.Basis.Equal(want.Basis) || into.Deviation != want.Deviation || into.Extra != want.Extra {
				t.Fatalf("%s trial %d: SplitChunkInto diverged", tr, trial)
			}
			var dev uint32
			var extra uint8
			basisBuf, dev, extra, err = c.SplitChunkBytes(chunk, basisBuf)
			if err != nil {
				t.Fatalf("%s trial %d: SplitChunkBytes: %v", tr, trial, err)
			}
			if !bytes.Equal(basisBuf, want.Basis.Bytes()) || dev != want.Deviation || extra != want.Extra {
				t.Fatalf("%s trial %d: SplitChunkBytes diverged", tr, trial)
			}

			back, err := c.MergeChunkBytes(basisBuf, dev, extra, dst[:0])
			if err != nil {
				t.Fatalf("%s trial %d: MergeChunkBytes: %v", tr, trial, err)
			}
			if !bytes.Equal(back, chunk) {
				t.Fatalf("%s trial %d: MergeChunkBytes round trip failed", tr, trial)
			}
		}
	}
}

// TestMergeChunkBytesIgnoresDirtyTailPadding: raw basis buffers from
// callers may carry garbage in the padding bits past BasisBits; the
// merge must mask them out.
func TestMergeChunkBytesIgnoresDirtyTailPadding(t *testing.T) {
	c := NewCodec(mustHamming(8)) // k = 247 bits → one pad bit
	rng := rand.New(rand.NewSource(7))
	chunk := make([]byte, c.ChunkBytes())
	rng.Read(chunk)
	s, err := c.SplitChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	dirty := append([]byte(nil), s.Basis.Bytes()...)
	dirty[len(dirty)-1] |= 1 // set the pad bit
	back, err := c.MergeChunkBytes(dirty, s.Deviation, s.Extra, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, chunk) {
		t.Fatal("dirty tail padding leaked into the merged chunk")
	}
}

// TestMergeChunkBytesValidates mirrors MergeChunk's error cases.
func TestMergeChunkBytesValidates(t *testing.T) {
	c := NewCodec(mustHamming(8))
	chunk := make([]byte, c.ChunkBytes())
	s, err := c.SplitChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	basis := s.Basis.Bytes()
	if _, err := c.MergeChunkBytes(basis[:len(basis)-1], s.Deviation, s.Extra, nil); err == nil {
		t.Error("short basis accepted")
	}
	if _, err := c.MergeChunkBytes(basis, 1<<8, s.Extra, nil); err == nil {
		t.Error("wide deviation accepted")
	}
	if _, err := c.MergeChunkBytes(basis, s.Deviation, 2, nil); err == nil {
		t.Error("wide extra accepted")
	}
}

func mustHamming(m int) *Hamming {
	h, err := NewHammingM(m)
	if err != nil {
		panic(err)
	}
	return h
}
