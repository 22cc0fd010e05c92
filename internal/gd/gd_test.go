package gd

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"zipline/internal/bitvec"
	"zipline/internal/hamming"
)

func hammingT(t *testing.T, m int) *Hamming {
	t.Helper()
	tr, err := NewHammingM(m)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestHammingSplitMergeRoundTrip(t *testing.T) {
	for _, m := range []int{3, 4, 5, 8, 10} {
		tr := hammingT(t, m)
		rng := rand.New(rand.NewSource(int64(m)))
		for trial := 0; trial < 100; trial++ {
			word := randomVector(rng, tr.WordBits())
			basis, dev := tr.Split(word)
			if basis.Len() != tr.BasisBits() {
				t.Fatalf("m=%d: basis %d bits, want %d", m, basis.Len(), tr.BasisBits())
			}
			back, err := tr.Merge(basis, dev)
			if err != nil {
				t.Fatalf("m=%d: %v", m, err)
			}
			if !back.Equal(word) {
				t.Fatalf("m=%d trial %d: round trip failed\n in: %s\nout: %s", m, trial, word, back)
			}
		}
	}
}

func TestHammingSplitExhaustive74(t *testing.T) {
	// All 128 words of the (7,4) configuration: the 16 bases each
	// cover exactly 8 words (perfect code), and every word round
	// trips.
	tr := hammingT(t, 3)
	bases := make(map[string]int)
	for w := 0; w < 128; w++ {
		word := bitvec.FromUint(uint64(w), 7)
		basis, dev := tr.Split(word)
		bases[basis.Key()]++
		back, err := tr.Merge(basis, dev)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(word) {
			t.Fatalf("word %07b: round trip gave %s", w, back)
		}
	}
	if len(bases) != 16 {
		t.Fatalf("%d distinct bases, want 16", len(bases))
	}
	for k, n := range bases {
		if n != 8 {
			t.Fatalf("basis %q covers %d words, want 8", k, n)
		}
	}
}

func TestHammingPaperExample(t *testing.T) {
	// Paper §2: chunks {0000000, 0000001, 0000010, ..., 1000000} all
	// map to basis 0000, and {1111111, 1111110, ...} to 1111.
	tr := hammingT(t, 3)
	zeroGroup := []string{"0000000", "0000001", "0000010", "0000100", "0001000", "0010000", "0100000", "1000000"}
	for _, s := range zeroGroup {
		basis, _ := tr.Split(bitvec.MustParse(s))
		if basis.String() != "0000" {
			t.Errorf("chunk %s: basis %s, want 0000", s, basis)
		}
	}
	oneGroup := []string{"1111111", "1111110", "1111101", "1111011", "1110111", "1101111", "1011111", "0111111"}
	for _, s := range oneGroup {
		basis, _ := tr.Split(bitvec.MustParse(s))
		if basis.String() != "1111" {
			t.Errorf("chunk %s: basis %s, want 1111", s, basis)
		}
	}
}

func TestHammingNeighborsShareBasis(t *testing.T) {
	// Words within Hamming distance 1 of a codeword share its basis:
	// the clustering property that makes sensor noise compressible.
	tr := hammingT(t, 8)
	rng := rand.New(rand.NewSource(20))
	word := randomVector(rng, tr.WordBits())
	basis0, dev0 := tr.Split(word)
	// The codeword is word with the dev0 bit fixed; all 255 one-bit
	// perturbations of that codeword share basis0.
	cw, err := tr.Merge(basis0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = dev0
	for pos := 0; pos < tr.WordBits(); pos += 17 {
		perturbed := cw.Clone()
		perturbed.Flip(pos)
		b, _ := tr.Split(perturbed)
		if !b.Equal(basis0) {
			t.Fatalf("perturbation at %d changed basis", pos)
		}
	}
}

func TestHammingMergeValidation(t *testing.T) {
	tr := hammingT(t, 3)
	if _, err := tr.Merge(bitvec.New(5), 0); err == nil {
		t.Error("wrong basis length accepted")
	}
	if _, err := tr.Merge(bitvec.New(4), 8); err == nil {
		t.Error("out-of-range deviation accepted")
	}
}

func TestLowBitsTransform(t *testing.T) {
	tr := LowBits{Bits: 16, Dev: 4}
	word := bitvec.MustParse("1010101011110110")
	basis, dev := tr.Split(word)
	if basis.String() != "101010101111" {
		t.Fatalf("basis = %s", basis)
	}
	if dev != 0b0110 {
		t.Fatalf("dev = %04b", dev)
	}
	back, err := tr.Merge(basis, dev)
	if err != nil || !back.Equal(word) {
		t.Fatalf("merge failed: %v -> %s", err, back)
	}
	if _, err := tr.Merge(basis, 16); err == nil {
		t.Error("out-of-range deviation accepted")
	}
}

func TestLowBitsRoundTripProperty(t *testing.T) {
	tr := LowBits{Bits: 24, Dev: 7}
	f := func(raw [3]byte) bool {
		word := bitvec.FromBytes(raw[:], 24)
		b, d := tr.Split(word)
		back, err := tr.Merge(b, d)
		return err == nil && back.Equal(word)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecChunkGeometry(t *testing.T) {
	// Paper §7 parameter choice: m=8 gives 32-byte chunks, a 247-bit
	// basis, one carried MSB, and 256 encoded bits.
	tr := hammingT(t, 8)
	c := NewCodec(tr)
	if c.ChunkBytes() != 32 {
		t.Errorf("ChunkBytes = %d, want 32", c.ChunkBytes())
	}
	if c.ExtraBits() != 1 {
		t.Errorf("ExtraBits = %d, want 1", c.ExtraBits())
	}
	if c.BasisBits() != 247 {
		t.Errorf("BasisBits = %d, want 247", c.BasisBits())
	}
	// Every m from 3..15 yields byte-aligned 2^(m-3)-byte chunks.
	for m := 3; m <= 15; m++ {
		cm := NewCodec(hammingT(t, m))
		if cm.ChunkBytes() != 1<<uint(m-3) {
			t.Errorf("m=%d: ChunkBytes = %d, want %d", m, cm.ChunkBytes(), 1<<uint(m-3))
		}
		if cm.ExtraBits() != 1 {
			t.Errorf("m=%d: ExtraBits = %d, want 1", m, cm.ExtraBits())
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range []int{3, 4, 8} {
		c := NewCodec(hammingT(t, m))
		rng := rand.New(rand.NewSource(int64(100 + m)))
		for trial := 0; trial < 100; trial++ {
			chunk := make([]byte, c.ChunkBytes())
			rng.Read(chunk)
			s, err := c.SplitChunk(chunk)
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.MergeChunk(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, chunk) {
				t.Fatalf("m=%d trial %d: chunk round trip failed", m, trial)
			}
		}
	}
}

func TestCodecMSBCarried(t *testing.T) {
	c := NewCodec(hammingT(t, 8))
	chunk := make([]byte, 32)
	chunk[0] = 0x80 // MSB set
	s, err := c.SplitChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if s.Extra != 1 {
		t.Fatalf("Extra = %d, want 1", s.Extra)
	}
	chunk[0] = 0x00
	s2, _ := c.SplitChunk(chunk)
	if s2.Extra != 0 {
		t.Fatalf("Extra = %d, want 0", s2.Extra)
	}
	// Same basis either way: the MSB does not influence the
	// dictionary key.
	if !s.Basis.Equal(s2.Basis) || s.Deviation != s2.Deviation {
		t.Fatal("MSB leaked into basis or deviation")
	}
}

func TestCodecErrors(t *testing.T) {
	c := NewCodec(hammingT(t, 8))
	if _, err := c.SplitChunk(make([]byte, 31)); err == nil {
		t.Error("short chunk accepted")
	}
	s := Split{Basis: bitvec.New(247), Deviation: 0, Extra: 2}
	if _, err := c.MergeChunk(s, nil); err == nil {
		t.Error("oversized extra accepted")
	}
	s = Split{Basis: bitvec.New(200), Deviation: 0}
	if _, err := c.MergeChunk(s, nil); err == nil {
		t.Error("wrong basis length accepted")
	}
}

func TestCodecAppendsToDst(t *testing.T) {
	c := NewCodec(hammingT(t, 3))
	chunk := []byte{0xA5}
	s, _ := c.SplitChunk(chunk)
	out, err := c.MergeChunk(s, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{1, 2, 3, 0xA5}) {
		t.Fatalf("append semantics broken: %x", out)
	}
}

func randomVector(rng *rand.Rand, n int) *bitvec.Vector {
	data := make([]byte, (n+7)/8)
	rng.Read(data)
	return bitvec.FromBytes(data, n)
}

func BenchmarkHammingSplit255(b *testing.B) {
	tr, _ := NewHammingM(8)
	c := NewCodec(tr)
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(chunk)
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.SplitChunk(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHammingMerge255(b *testing.B) {
	tr, _ := NewHammingM(8)
	c := NewCodec(tr)
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(chunk)
	s, _ := c.SplitChunk(chunk)
	dst := make([]byte, 0, 32)
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.MergeChunk(s, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = hamming.Table1 // keep the import for documentation cross-refs
