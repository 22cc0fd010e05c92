package hamming

import (
	"math/rand"
	"testing"

	"zipline/internal/bitvec"
)

func TestTable1AllConstructible(t *testing.T) {
	// Every polynomial printed in paper Table 1 must be primitive
	// and yield a working code.
	for _, s := range Table1 {
		c, err := New(s.M, s.Param)
		if err != nil {
			t.Errorf("Table 1 row m=%d poly=%s: %v", s.M, s.Poly, err)
			continue
		}
		if c.N() != s.N() || c.K() != s.K() {
			t.Errorf("m=%d: (n,k)=(%d,%d), want (%d,%d)", s.M, c.N(), c.K(), s.N(), s.K())
		}
	}
}

func TestTable1PaperParamMismatch(t *testing.T) {
	// Documented deviation: the printed CRC parameters for the two
	// (511, 502) rows are not primitive — they cannot realise a
	// Hamming code. All other rows' printed parameters match the
	// printed polynomials.
	for _, s := range Table1 {
		if s.Param == s.PaperParam {
			continue
		}
		if s.M != 9 {
			t.Errorf("unexpected param mismatch at m=%d", s.M)
		}
		if _, err := New(s.M, s.PaperParam); err == nil {
			t.Errorf("paper-printed param %#x for m=9 unexpectedly primitive", s.PaperParam)
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := New(2, 0x3); err == nil {
		t.Error("m=2 accepted")
	}
	if _, err := New(16, 0x3); err == nil {
		t.Error("m=16 accepted")
	}
	// x^4+x^3+x^2+x+1 divides x^5-1: period 5, not primitive.
	if _, err := New(4, 0xF); err == nil {
		t.Error("non-primitive generator accepted")
	}
}

func TestPaperTable2Syndromes(t *testing.T) {
	// Table 2a: Hamming(7,4) syndromes for each single-bit error.
	// "Error i" in the paper is the set bit of the printed sequence,
	// i.e. polynomial degree i, at wire position n-1-i.
	c := MustByM(3)
	want := []uint32{0b001, 0b010, 0b100, 0b011, 0b110, 0b111, 0b101}
	for deg, s := range want {
		pos := c.n - 1 - deg
		if got := c.SyndromeOfPosition(pos); got != s {
			t.Errorf("error %d: syndrome %03b, want %03b", deg, got, s)
		}
		if got := c.ErrorPosition(s); got != pos {
			t.Errorf("syndrome %03b: position %d, want %d", s, got, pos)
		}
		// And end-to-end: the syndrome of the actual one-bit word.
		v := bitvec.New(7)
		v.Set(pos, true)
		if got := c.SyndromeVector(v); got != s {
			t.Errorf("word with bit %d: syndrome %03b, want %03b", pos, got, s)
		}
	}
	if c.ErrorPosition(0) != -1 {
		t.Error("syndrome 0 should map to no error")
	}
}

func TestEncodeProducesCodewords(t *testing.T) {
	for _, m := range []int{3, 4, 5, 8} {
		c := MustByM(m)
		rng := rand.New(rand.NewSource(int64(m)))
		for trial := 0; trial < 50; trial++ {
			msg := randomVector(rng, c.K())
			cw := c.Encode(msg)
			if cw.Len() != c.N() {
				t.Fatalf("m=%d: codeword length %d != %d", m, cw.Len(), c.N())
			}
			if c.SyndromeVector(cw) != 0 {
				t.Fatalf("m=%d trial %d: Encode output not a codeword (syndrome %x)", m, trial, c.SyndromeVector(cw))
			}
			// Systematic: message embedded at positions m..n-1.
			if !cw.Slice(c.M(), c.K()).Equal(msg) {
				t.Fatalf("m=%d: message not embedded systematically", m)
			}
		}
	}
}

func TestDecodeCorrectsSingleErrors(t *testing.T) {
	c := MustByM(4) // Hamming(15,11)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		msg := randomVector(rng, c.K())
		cw := c.Encode(msg)
		pos := rng.Intn(c.N())
		recv := cw.Clone()
		recv.Flip(pos)
		got, fixed := c.Decode(recv)
		if fixed != pos {
			t.Fatalf("trial %d: corrected position %d, want %d", trial, fixed, pos)
		}
		if !got.Equal(msg) {
			t.Fatalf("trial %d: decoded %s, want %s", trial, got, msg)
		}
		// Input must not be mutated.
		if cwAgain := cw.Clone(); !cwAgain.Equal(cw) {
			t.Fatal("input mutated")
		}
	}
}

func TestDecodeCleanWord(t *testing.T) {
	c := MustByM(3)
	msg := bitvec.MustParse("1010")
	cw := c.Encode(msg)
	got, fixed := c.Decode(cw)
	if fixed != -1 {
		t.Fatalf("clean word reported error at %d", fixed)
	}
	if !got.Equal(msg) {
		t.Fatalf("decoded %s, want %s", got, msg)
	}
}

func TestPerfectCodeTiling(t *testing.T) {
	// Hamming codes are perfect: every n-bit word is within distance
	// one of exactly one codeword. Exhaustive for (7,4).
	c := MustByM(3)
	seen := make(map[string]int)
	for w := 0; w < 128; w++ {
		v := bitvec.FromUint(uint64(w), 7)
		s := c.SyndromeVector(v)
		pos := c.ErrorPosition(s)
		cw := v.Clone()
		if pos >= 0 {
			cw.Flip(pos)
		}
		if c.SyndromeVector(cw) != 0 {
			t.Fatalf("word %07b: nearest word %s is not a codeword", w, cw)
		}
		seen[cw.Key()]++
	}
	if len(seen) != 16 {
		t.Fatalf("reached %d codewords, want 16", len(seen))
	}
	for k, cnt := range seen {
		if cnt != 8 {
			t.Fatalf("codeword %q covers %d words, want 8 (ball of radius 1)", k, cnt)
		}
	}
}

func TestParityMatchesEncode(t *testing.T) {
	// Figure 2's trick: parity = CRC(basis · x^m). Cross-check
	// against brute-force search over all 2^m parity candidates.
	c := MustByM(4)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		msg := randomVector(rng, c.K())
		p := c.Parity(msg)
		found := -1
		for cand := 0; cand < 1<<uint(c.M()); cand++ {
			w := bitvec.NewWriter(2)
			w.WriteUint(uint64(cand), c.M())
			w.WriteVector(msg)
			if c.Engine().Remainder(w.Bytes(), c.N()) == 0 {
				found = cand
				break
			}
		}
		if found != int(p) {
			t.Fatalf("trial %d: Parity=%x, brute force=%x", trial, p, found)
		}
	}
}

func TestParityBytesMatchesParity(t *testing.T) {
	c := MustByM(8)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		msg := randomVector(rng, c.K())
		if got, want := c.ParityBytes(msg.Bytes()), c.Parity(msg); got != want {
			t.Fatalf("ParityBytes %x != Parity %x", got, want)
		}
	}
}

// TestParityBytesTableAllM pins the per-byte parity tables against the
// LFSR reference for every code size — including the m < padding codes
// (e.g. m=4, k=11) whose last-byte table takes the inverse-shift
// branch — and checks tail padding bits are ignored.
func TestParityBytesTableAllM(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for m := MinM; m <= MaxM; m++ {
		c := MustByM(m)
		nb := (c.K() + 7) / 8
		for trial := 0; trial < 10; trial++ {
			buf := make([]byte, nb)
			rng.Read(buf)
			if pad := 8*nb - c.K(); pad > 0 {
				buf[nb-1] &= 0xFF << uint(pad)
			}
			want := c.eng.ShiftN(c.eng.Remainder(buf, c.K()), m)
			if got := c.ParityBytes(buf); got != want {
				t.Fatalf("m=%d trial %d: table parity %#x != reference %#x", m, trial, got, want)
			}
			// Dirty padding bits must not change the parity.
			dirty := append([]byte(nil), buf...)
			dirty[nb-1] |= byte(1<<uint(8*nb-c.K()) - 1)
			if got := c.ParityBytes(dirty); got != want {
				t.Fatalf("m=%d trial %d: padding bits leaked into parity", m, trial)
			}
		}
	}
}

func TestSyndromePositionRoundTripAllM(t *testing.T) {
	for m := MinM; m <= MaxM; m++ {
		c := MustByM(m)
		// Probe a spread of positions rather than all 32k for m=15.
		step := c.N()/64 + 1
		for pos := 0; pos < c.N(); pos += step {
			s := c.SyndromeOfPosition(pos)
			if got := c.ErrorPosition(s); got != pos {
				t.Fatalf("m=%d pos=%d: round trip gave %d", m, pos, got)
			}
		}
	}
}

func TestGHOrthogonality(t *testing.T) {
	// G_s · Hᵀ = 0: every generator row (codeword) has zero
	// syndrome; and all single-bit syndromes are distinct — the two
	// defining properties of the construction.
	c := MustByM(5)
	for i := 0; i < c.K(); i++ {
		e := bitvec.New(c.K())
		e.Set(i, true)
		if c.SyndromeVector(c.Encode(e)) != 0 {
			t.Fatalf("generator row %d not orthogonal to H", i)
		}
	}
	seen := make(map[uint32]bool)
	for pos := 0; pos < c.N(); pos++ {
		s := c.SyndromeOfPosition(pos)
		if s == 0 || seen[s] {
			t.Fatalf("column %d of H repeats or is zero", pos)
		}
		seen[s] = true
	}
}

func TestByMUnknown(t *testing.T) {
	if _, err := ByM(16); err == nil {
		t.Error("ByM(16) should fail")
	}
	if _, err := SpecByM(2); err == nil {
		t.Error("SpecByM(2) should fail")
	}
}

func TestByMShared(t *testing.T) {
	a, err := ByM(8)
	if err != nil {
		t.Fatal(err)
	}
	if b := MustByM(8); b != a {
		t.Error("two ByM(8) calls built two codes")
	}
	if MustByM(9) == a {
		t.Error("ByM(9) returned the m=8 code")
	}
}

func randomVector(rng *rand.Rand, n int) *bitvec.Vector {
	data := make([]byte, (n+7)/8)
	rng.Read(data)
	return bitvec.FromBytes(data, n)
}

func BenchmarkSyndrome255(b *testing.B) {
	c := MustByM(8)
	data := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Engine().Remainder(data, c.N())
	}
}

func BenchmarkParity247(b *testing.B) {
	c := MustByM(8)
	data := make([]byte, 31)
	rand.New(rand.NewSource(1)).Read(data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ParityBytes(data)
	}
}
