package packet

import (
	"bytes"
	"math/rand"
	"testing"

	"zipline/internal/bitvec"
	"zipline/internal/gd"
)

func TestMACString(t *testing.T) {
	m := MAC{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Fatalf("MAC string = %q", got)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Dst:       MAC{1, 2, 3, 4, 5, 6},
		Src:       MAC{7, 8, 9, 10, 11, 12},
		EtherType: EtherTypeCompressed,
	}
	payload := []byte{0xAA, 0xBB, 0xCC}
	frame := Frame(h, payload)
	if len(frame) != HeaderLen+3 {
		t.Fatalf("frame length %d", len(frame))
	}
	got, pl, err := ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header = %+v, want %+v", got, h)
	}
	if !bytes.Equal(pl, payload) {
		t.Fatalf("payload = %x", pl)
	}
}

func TestParseHeaderShortFrame(t *testing.T) {
	if _, _, err := ParseHeader(make([]byte, 13)); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestTypeMapping(t *testing.T) {
	cases := []struct {
		et   uint16
		want Type
	}{
		{EtherTypeRaw, TypeRaw},
		{EtherTypeUncompressed, TypeUncompressed},
		{EtherTypeCompressed, TypeCompressed},
		{0x0800, TypeRaw}, // arbitrary traffic is type 1
	}
	for _, c := range cases {
		if got := TypeOf(c.et); got != c.want {
			t.Errorf("TypeOf(%#x) = %v, want %v", c.et, got, c.want)
		}
	}
	if Type(9).String() != "type9/invalid" {
		t.Error("invalid type string")
	}
}

func paperFormat(t *testing.T, align bool) (Format, *gd.Codec) {
	t.Helper()
	tr, err := gd.NewHammingM(8)
	if err != nil {
		t.Fatal(err)
	}
	c := gd.NewCodec(tr)
	f, err := NewFormat(c, 15, align)
	if err != nil {
		t.Fatal(err)
	}
	return f, c
}

func TestPaperPayloadSizes(t *testing.T) {
	// The published operating point (m=8, t=15): 32 B chunks become
	// 33 B type 2 payloads (1.03× — the measured "no table" bar) and
	// 3 B type 3 payloads (0.094× — the "static table" bar).
	f, c := paperFormat(t, true)
	if c.ChunkBytes() != 32 {
		t.Fatalf("chunk = %d bytes", c.ChunkBytes())
	}
	if got := f.Type2Len(); got != 33 {
		t.Errorf("aligned Type2Len = %d, want 33", got)
	}
	if got := f.Type3Len(); got != 3 {
		t.Errorf("aligned Type3Len = %d, want 3", got)
	}
	// Packed flavour: no overhead at all for type 2.
	fp, _ := paperFormat(t, false)
	if got := fp.Type2Len(); got != 32 {
		t.Errorf("packed Type2Len = %d, want 32", got)
	}
	if got := fp.Type3Len(); got != 3 {
		t.Errorf("packed Type3Len = %d, want 3", got)
	}
}

func TestType2RoundTrip(t *testing.T) {
	for _, align := range []bool{true, false} {
		f, c := paperFormat(t, align)
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 50; trial++ {
			chunk := make([]byte, c.ChunkBytes())
			rng.Read(chunk)
			s, err := c.SplitChunk(chunk)
			if err != nil {
				t.Fatal(err)
			}
			tail := []byte{9, 9, 9}
			payload := f.AppendType2(nil, s)
			payload = append(payload, tail...)
			got, gotTail, err := f.ParseType2(payload)
			if err != nil {
				t.Fatalf("align=%v: %v", align, err)
			}
			if got.Deviation != s.Deviation || got.Extra != s.Extra || !got.Basis.Equal(s.Basis) {
				t.Fatalf("align=%v trial %d: split mismatch", align, trial)
			}
			if !bytes.Equal(gotTail, tail) {
				t.Fatalf("align=%v: tail = %x", align, gotTail)
			}
			// Full circle back to the chunk.
			out, err := c.MergeChunk(got, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, chunk) {
				t.Fatalf("align=%v trial %d: chunk not reconstructed", align, trial)
			}
		}
	}
}

func TestType3RoundTrip(t *testing.T) {
	for _, align := range []bool{true, false} {
		f, _ := paperFormat(t, align)
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 50; trial++ {
			in := Compressed{
				Deviation: rng.Uint32() & 0xFF,
				Extra:     uint8(rng.Intn(2)),
				ID:        rng.Uint32() & 0x7FFF,
			}
			payload := f.AppendType3(nil, in)
			payload = append(payload, 1, 2)
			got, tail, err := f.ParseType3(payload)
			if err != nil {
				t.Fatal(err)
			}
			if got != in {
				t.Fatalf("align=%v trial %d: %+v != %+v", align, trial, got, in)
			}
			if !bytes.Equal(tail, []byte{1, 2}) {
				t.Fatalf("tail = %x", tail)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	f, _ := paperFormat(t, true)
	if _, _, err := f.ParseType2(make([]byte, 10)); err == nil {
		t.Error("short type 2 accepted")
	}
	if _, _, err := f.ParseType3(make([]byte, 2)); err == nil {
		t.Error("short type 3 accepted")
	}
	// Aligned extra byte with out-of-range value.
	bad := make([]byte, f.Type2Len())
	bad[1] = 0x02 // extra field = 2, but only 1 bit is carried
	if _, _, err := f.ParseType2(bad); err == nil {
		t.Error("oversized extra accepted")
	}
}

func TestFormatValidation(t *testing.T) {
	tr, _ := gd.NewHammingM(8)
	c := gd.NewCodec(tr)
	if _, err := NewFormat(c, 0, true); err == nil {
		t.Error("idBits 0 accepted")
	}
	if _, err := NewFormat(c, 25, true); err == nil {
		t.Error("idBits 25 accepted")
	}
}

func TestSmallCodeFormats(t *testing.T) {
	// m=3: chunk 1 B, k=4 bits; everything fits in tiny payloads and
	// still round-trips in both flavours.
	tr, err := gd.NewHammingM(3)
	if err != nil {
		t.Fatal(err)
	}
	c := gd.NewCodec(tr)
	for _, align := range []bool{true, false} {
		f := MustFormat(c, 2, align)
		s, err := c.SplitChunk([]byte{0xC3})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := f.ParseType2(f.AppendType2(nil, s))
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.MergeChunk(got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != 0xC3 {
			t.Fatalf("align=%v: round trip %02x", align, out[0])
		}
	}
}

// fieldPatterns returns the values a [deviation|extra|ID] or
// [deviation|extra] group of the given widths is tested with: all
// ones, all zeros, alternating bits, and every single bit of the group
// set in turn — the pattern that shows a field shifted by one.
func fieldPatterns(m, extra, idBits int) []Compressed {
	total := m + extra + idBits
	groups := []uint64{1<<uint(total) - 1, 0, 0xAAAAAAAAAAAAAAAA >> uint(64-total)}
	for i := 0; i < total; i++ {
		groups = append(groups, 1<<uint(i))
	}
	out := make([]Compressed, len(groups))
	for i, g := range groups {
		out[i] = Compressed{
			Deviation: uint32(g >> uint(extra+idBits)),
			Extra:     uint8(g >> uint(idBits) & (1<<uint(extra) - 1)),
			ID:        uint32(g & (1<<uint(idBits) - 1)),
		}
	}
	return out
}

// TestFormatsAtEveryWidth round-trips both encoded regions over every
// Hamming geometry and identifier width, in both layouts. The paper's
// m = 8, t = 15 point has no pad bits in its type 3 region, so a parse
// that mishandles them passes every test pinned to that point; almost
// every other cell of this grid has some.
func TestFormatsAtEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tail := []byte{0xA5, 0x5A}
	for m := 3; m <= 15; m++ {
		tr, err := gd.NewHammingM(m)
		if err != nil {
			t.Fatal(err)
		}
		c := gd.NewCodec(tr)
		for _, align := range []bool{true, false} {
			for idBits := 1; idBits <= 24; idBits++ {
				f := MustFormat(c, idBits, align)
				for _, in := range fieldPatterns(m, c.ExtraBits(), idBits) {
					payload := append(f.AppendType3(nil, in), tail...)
					if len(payload) != f.Type3Len()+len(tail) {
						t.Fatalf("m=%d id=%d align=%v: type 3 region %d bytes, want %d", m, idBits, align, len(payload)-len(tail), f.Type3Len())
					}
					got, gotTail, err := f.ParseType3(payload)
					if err != nil || got != in || !bytes.Equal(gotTail, tail) {
						t.Fatalf("m=%d id=%d align=%v: type 3 %+v came back %+v, tail %x (%v)", m, idBits, align, in, got, gotTail, err)
					}
				}
			}

			f := MustFormat(c, 15, align)
			kb := (c.BasisBits() + 7) / 8
			basis := make([]byte, kb)
			scratch := make([]byte, kb)
			for _, in := range fieldPatterns(m, c.ExtraBits(), 0) {
				rng.Read(basis)
				basis[kb-1] &= 0xFF << uint(kb*8-c.BasisBits())
				// Stale scratch: the packed parse must overwrite all of it.
				for i := range scratch {
					scratch[i] = 0xFF
				}
				payload := append(f.AppendType2Bytes(nil, basis, in.Deviation, in.Extra), tail...)
				if len(payload) != f.Type2Len()+len(tail) {
					t.Fatalf("m=%d align=%v: type 2 region %d bytes, want %d", m, align, len(payload)-len(tail), f.Type2Len())
				}
				gotBasis, dev, extra, gotTail, err := f.ParseType2Bytes(payload, scratch)
				if err != nil || dev != in.Deviation || extra != in.Extra || !bytes.Equal(gotBasis, basis) || !bytes.Equal(gotTail, tail) {
					t.Fatalf("m=%d align=%v: type 2 dev %#x extra %d came back dev %#x extra %d, basis equal %v, tail %x (%v)",
						m, align, in.Deviation, in.Extra, dev, extra, bytes.Equal(gotBasis, basis), gotTail, err)
				}
			}
		}
	}
}

var sinkBytes []byte

func BenchmarkAppendParseType2(b *testing.B) {
	tr, _ := gd.NewHammingM(8)
	c := gd.NewCodec(tr)
	f := MustFormat(c, 15, true)
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(chunk)
	s, _ := c.SplitChunk(chunk)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = f.AppendType2(buf[:0], s)
		if _, _, err := f.ParseType2(buf); err != nil {
			b.Fatal(err)
		}
	}
	sinkBytes = buf
}

var _ = bitvec.New // cross-package doc reference
