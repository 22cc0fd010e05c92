package gd

import (
	"bytes"
	"math/rand"
	"testing"

	"zipline/internal/bitvec"
)

// genericSplit mirrors what Codec.SplitChunk does without the Hamming
// fast path, using only the Transform interface.
func genericSplit(c *Codec, chunk []byte) Split {
	word := bitvec.FromBytes(chunk, c.ChunkBits())
	var extra uint8
	if c.ExtraBits() > 0 {
		extra = uint8(word.Slice(0, c.ExtraBits()).Uint())
		word = word.Slice(c.ExtraBits(), c.Transform().WordBits())
	}
	basis, dev := c.Transform().Split(word)
	return Split{Basis: basis, Deviation: dev, Extra: extra}
}

func genericMerge(c *Codec, s Split) []byte {
	word, err := c.Transform().Merge(s.Basis, s.Deviation)
	if err != nil {
		panic(err)
	}
	w := bitvec.NewWriter(c.ChunkBytes())
	w.WriteUint(uint64(s.Extra), c.ExtraBits())
	w.WriteVector(word)
	return w.Bytes()
}

// TestFastPathMatchesGeneric pins the byte path to the Transform
// interface basis byte for basis byte — padding included, because the
// dictionary keys on the raw bytes: a stray padding bit would turn a
// hit into a miss. Each split shape runs on reused scratch left dirty
// by the previous trial.
func TestFastPathMatchesGeneric(t *testing.T) {
	for _, m := range []int{3, 4, 5, 8, 11} {
		tr, err := NewHammingM(m)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCodec(tr)
		nb := (c.BasisBits() + 7) / 8
		padMask := byte(1)<<uint(8*nb-c.BasisBits()) - 1
		rng := rand.New(rand.NewSource(int64(m) * 31))
		var into Split
		raw := bytes.Repeat([]byte{0xFF}, nb)
		for trial := 0; trial < 200; trial++ {
			chunk := make([]byte, c.ChunkBytes())
			rng.Read(chunk)
			slow := genericSplit(c, chunk)
			want := slow.Basis.Bytes()
			if want[nb-1]&padMask != 0 {
				t.Fatalf("m=%d trial %d: generic basis has padding bits set", m, trial)
			}

			fast, err := c.SplitChunk(chunk)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SplitChunkInto(chunk, &into); err != nil {
				t.Fatal(err)
			}
			var dev uint32
			var extra uint8
			raw, dev, extra, err = c.SplitChunkBytes(chunk, raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				name  string
				basis []byte
				dev   uint32
				extra uint8
			}{
				{"SplitChunk", fast.Basis.Bytes(), fast.Deviation, fast.Extra},
				{"SplitChunkInto", into.Basis.Bytes(), into.Deviation, into.Extra},
				{"SplitChunkBytes", raw, dev, extra},
			} {
				if !bytes.Equal(got.basis, want) || got.dev != slow.Deviation || got.extra != slow.Extra {
					t.Fatalf("m=%d trial %d: %s diverged\nfast: %x dev=%x extra=%d\nslow: %x dev=%x extra=%d",
						m, trial, got.name, got.basis, got.dev, got.extra, want, slow.Deviation, slow.Extra)
				}
			}

			out, err := c.MergeChunk(fast, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, chunk) {
				t.Fatalf("m=%d trial %d: fast merge did not round trip", m, trial)
			}
			if out, err = c.MergeChunkBytes(raw, dev, extra, out[:0]); err != nil || !bytes.Equal(out, chunk) {
				t.Fatalf("m=%d trial %d: byte merge did not round trip (%v)", m, trial, err)
			}
			if slowOut := genericMerge(c, slow); !bytes.Equal(slowOut, chunk) {
				t.Fatalf("m=%d trial %d: generic merge did not round trip", m, trial)
			}
			// Dirty the scratch for the next trial, padding bits too.
			raw[nb-1] |= padMask
			into.Basis.Bytes()[nb-1] |= padMask
		}
	}
}

func TestFastMergeValidation(t *testing.T) {
	tr, _ := NewHammingM(8)
	c := NewCodec(tr)
	if _, err := c.MergeChunk(Split{Basis: bitvec.New(10)}, nil); err == nil {
		t.Error("bad basis length accepted")
	}
	if _, err := c.MergeChunk(Split{Basis: bitvec.New(247), Deviation: 1 << 8}, nil); err == nil {
		t.Error("bad deviation accepted")
	}
	if _, err := c.MergeChunk(Split{Basis: bitvec.New(247), Extra: 2}, nil); err == nil {
		t.Error("bad extra accepted")
	}
	if _, err := c.SplitChunk(make([]byte, 3)); err == nil {
		t.Error("bad chunk length accepted")
	}
}
