package bch

import (
	"math/rand"
	"testing"

	"zipline/internal/bitvec"
	"zipline/internal/gd"
	"zipline/internal/hamming"
)

func TestGeneratorDegrees(t *testing.T) {
	// Classic BCH parameters: (15,11,1), (15,7,2), (15,5,3),
	// (255,247,1), (255,239,2), (255,231,3).
	cases := []struct{ m, t, wantK int }{
		{4, 1, 11}, {4, 2, 7}, {4, 3, 5},
		{8, 1, 247}, {8, 2, 239}, {8, 3, 231},
		{5, 2, 21},
	}
	for _, c := range cases {
		code, err := New(c.m, c.t)
		if err != nil {
			t.Fatalf("m=%d t=%d: %v", c.m, c.t, err)
		}
		if code.K() != c.wantK {
			t.Errorf("BCH(m=%d,t=%d): k=%d, want %d", c.m, c.t, code.K(), c.wantK)
		}
	}
}

func TestT1MatchesHamming(t *testing.T) {
	// BCH with t=1 *is* the Hamming code: same generator, same
	// syndromes, same corrections.
	for _, m := range []int{3, 4, 8} {
		code, err := New(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		ham := hamming.MustByM(m)
		if uint32(code.Generator()) != ham.Engine().Generator() {
			t.Fatalf("m=%d: generator %#x != hamming %#x", m, code.Generator(), ham.Engine().Generator())
		}
		rng := rand.New(rand.NewSource(int64(m)))
		for trial := 0; trial < 30; trial++ {
			word := randomVector(rng, code.N())
			if code.Syndrome(word) != ham.SyndromeVector(word) {
				t.Fatalf("m=%d: syndrome mismatch", m)
			}
		}
	}
}

func TestErrorPositionsUpToT(t *testing.T) {
	for _, tc := range []struct{ m, t int }{{4, 2}, {5, 2}, {8, 2}, {8, 3}} {
		code, err := New(tc.m, tc.t)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.m*10 + tc.t)))
		for trial := 0; trial < 60; trial++ {
			// Start from a random codeword.
			basis := randomVector(rng, code.K())
			w := bitvec.NewWriter((code.N() + 7) / 8)
			w.WriteUint(uint64(code.Parity(basis)), code.SyndromeBits())
			w.WriteVector(basis)
			cw := bitvec.FromBytes(w.Bytes(), code.N())
			if code.Syndrome(cw) != 0 {
				t.Fatalf("m=%d t=%d: parity construction broken", tc.m, tc.t)
			}
			// Inject 0..t distinct errors.
			nerr := rng.Intn(tc.t + 1)
			want := map[int]bool{}
			recv := cw.Clone()
			for len(want) < nerr {
				p := rng.Intn(code.N())
				if !want[p] {
					want[p] = true
					recv.Flip(p)
				}
			}
			got, ok := code.ErrorPositions(code.Syndrome(recv))
			if !ok {
				t.Fatalf("m=%d t=%d trial %d: %d injected errors not decoded", tc.m, tc.t, trial, nerr)
			}
			if len(got) != nerr {
				t.Fatalf("m=%d t=%d: decoded %d errors, want %d", tc.m, tc.t, len(got), nerr)
			}
			for _, p := range got {
				if !want[p] {
					t.Fatalf("m=%d t=%d: spurious position %d", tc.m, tc.t, p)
				}
			}
		}
	}
}

func TestBeyondRadiusIsDetected(t *testing.T) {
	// t+1 errors must either fail decoding (ok=false) or decode to
	// some ≤t-error pattern with the same syndrome — never panic,
	// and the transform fallback must keep Split/Merge bijective
	// (checked by the round-trip test below).
	code, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	undecodable := 0
	for trial := 0; trial < 200; trial++ {
		v := bitvec.New(code.N())
		for injected := 0; injected < 3; {
			p := rng.Intn(code.N())
			if !v.Bit(p) {
				v.Set(p, true)
				injected++
			}
		}
		if _, ok := code.ErrorPositions(code.Syndrome(v)); !ok {
			undecodable++
		}
	}
	if undecodable == 0 {
		t.Fatal("no 3-error pattern was flagged undecodable for a t=2 code")
	}
}

func TestTransformRoundTrip(t *testing.T) {
	for _, tc := range []struct{ m, t int }{{4, 2}, {5, 2}, {8, 2}} {
		tr, err := NewTransform(tc.m, tc.t)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.m)))
		for trial := 0; trial < 100; trial++ {
			word := randomVector(rng, tr.WordBits())
			basis, dev := tr.Split(word)
			back, err := tr.Merge(basis, dev)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(word) {
				t.Fatalf("m=%d t=%d trial %d: round trip failed", tc.m, tc.t, trial)
			}
		}
	}
}

func TestTransformExhaustive15_7(t *testing.T) {
	// BCH(15,7,2): all 32,768 words round trip, and the number of
	// distinct bases is exactly 2^7 = 128.
	tr, err := NewTransform(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]bool{}
	for w := 0; w < 1<<15; w++ {
		word := bitvec.FromUint(uint64(w), 15)
		basis, dev := tr.Split(word)
		bases[basis.Key()] = true
		back, err := tr.Merge(basis, dev)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(word) {
			t.Fatalf("word %015b: round trip failed", w)
		}
	}
	if len(bases) != 128 {
		t.Fatalf("distinct bases = %d, want 128", len(bases))
	}
}

func TestTransformClusterRadius2(t *testing.T) {
	// Words within distance ≤2 of a codeword share its basis — the
	// "more chunks mapped to each basis" gain over Hamming.
	tr, _ := NewTransform(8, 2)
	rng := rand.New(rand.NewSource(5))
	basis0 := randomVector(rng, tr.BasisBits())
	cw, err := tr.Merge(basis0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		perturbed := cw.Clone()
		p1 := rng.Intn(tr.WordBits())
		p2 := rng.Intn(tr.WordBits())
		perturbed.Flip(p1)
		if p2 != p1 {
			perturbed.Flip(p2)
		}
		b, _ := tr.Split(perturbed)
		if !b.Equal(basis0) {
			t.Fatalf("2-bit perturbation (%d,%d) changed basis", p1, p2)
		}
	}
}

func TestTransformViaCodec(t *testing.T) {
	// The BCH transform plugs into the generic chunk codec: 32-byte
	// chunks, 239-bit basis, 16-bit deviation.
	tr, _ := NewTransform(8, 2)
	c := gd.NewCodec(tr)
	if c.ChunkBytes() != 32 || c.BasisBits() != 239 || c.DeviationBits() != 16 {
		t.Fatalf("geometry: chunk=%d basis=%d dev=%d", c.ChunkBytes(), c.BasisBits(), c.DeviationBits())
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		chunk := make([]byte, 32)
		rng.Read(chunk)
		s, err := c.SplitChunk(chunk)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.MergeChunk(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != chunk[i] {
				t.Fatalf("trial %d: codec round trip failed", trial)
			}
		}
	}
}

func TestMergeValidation(t *testing.T) {
	tr, _ := NewTransform(4, 2)
	if _, err := tr.Merge(bitvec.New(3), 0); err == nil {
		t.Error("bad basis length accepted")
	}
	if _, err := tr.Merge(bitvec.New(7), 1<<9); err == nil {
		t.Error("oversized deviation accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(4, 0); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := New(99, 1); err == nil {
		t.Error("bad m accepted")
	}
	// t=8 at m=4 consumes every root of x^15−1: no message bits left.
	if _, err := New(4, 8); err == nil {
		t.Error("degenerate code (no message bits) accepted")
	}
}

func randomVector(rng *rand.Rand, n int) *bitvec.Vector {
	data := make([]byte, (n+7)/8)
	rng.Read(data)
	return bitvec.FromBytes(data, n)
}

func BenchmarkSplitBCH255T2(b *testing.B) {
	tr, _ := NewTransform(8, 2)
	rng := rand.New(rand.NewSource(1))
	word := randomVector(rng, tr.WordBits())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Split(word)
	}
}
