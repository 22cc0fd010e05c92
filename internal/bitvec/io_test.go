package bitvec

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestWriterBasic(t *testing.T) {
	var w Writer
	w.WriteBit(true)
	w.WriteBit(false)
	w.WriteUint(0b1011, 4)
	if w.Len() != 6 {
		t.Fatalf("Len = %d, want 6", w.Len())
	}
	// Bits: 1 0 1011 -> 101011xx
	if got := w.Bytes()[0]; got != 0b10101100 {
		t.Fatalf("bytes = %08b", got)
	}
}

func TestWriterPad(t *testing.T) {
	var w Writer
	w.WriteUint(0b111, 3)
	if n := w.Pad(); n != 5 {
		t.Fatalf("Pad = %d, want 5", n)
	}
	if w.Len() != 8 {
		t.Fatalf("Len = %d, want 8", w.Len())
	}
	if n := w.Pad(); n != 0 {
		t.Fatalf("Pad on aligned = %d, want 0", n)
	}
	if got := w.Bytes()[0]; got != 0b11100000 {
		t.Fatalf("bytes = %08b", got)
	}
}

func TestWriterVectorAlignedFast(t *testing.T) {
	var w Writer
	v := MustParse("10110011101") // 11 bits
	w.WriteVector(v)              // aligned path
	w.WriteVector(v)              // unaligned path
	var r Reader
	r.ResetBits(w.Bytes(), w.Len())
	for i := 0; i < 2; i++ {
		got, err := r.ReadVector(11)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Fatalf("read %d = %s, want %s", i, got, v)
		}
	}
}

func TestWriterBytesUnaligned(t *testing.T) {
	var w Writer
	w.WriteBit(true)
	w.WriteBytes([]byte{0xAB, 0xCD})
	var r Reader
	r.ResetBits(w.Bytes(), w.Len())
	if b, _ := r.ReadBit(); !b {
		t.Fatal("first bit lost")
	}
	x, err := r.ReadUint(16)
	if err != nil {
		t.Fatal(err)
	}
	if x != 0xABCD {
		t.Fatalf("bytes = %04x, want abcd", x)
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteUint(0xFF, 8)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("reset did not clear")
	}
	w.WriteUint(0x1, 1)
	if got := w.Bytes()[0]; got != 0x80 {
		t.Fatalf("stale data after reset: %02x", got)
	}
}

func TestReaderErrors(t *testing.T) {
	var r Reader
	r.ResetBits([]byte{0xFF}, 8)
	if _, err := r.ReadUint(9); err != ErrShortBuffer {
		t.Fatalf("ReadUint(9) err = %v, want ErrShortBuffer", err)
	}
	if _, err := r.ReadUint(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrShortBuffer {
		t.Fatalf("ReadBit at end err = %v", err)
	}
	if _, err := r.ReadVector(1); err != ErrShortBuffer {
		t.Fatalf("ReadVector at end err = %v", err)
	}
}

func TestReaderRemaining(t *testing.T) {
	var r Reader
	r.ResetBits([]byte{0xAA, 0xBB}, 12)
	if r.Remaining() != 12 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	r.ReadUint(5)
	if r.Remaining() != 7 || r.Pos() != 5 {
		t.Fatalf("Remaining = %d Pos = %d", r.Remaining(), r.Pos())
	}
}

func TestWriterReaderRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		var w Writer
		type op struct {
			kind  int
			x     uint64
			width int
			v     *Vector
			bs    []byte
		}
		var ops []op
		for i := 0; i < 20; i++ {
			switch k := rng.Intn(4); k {
			case 0:
				ops = append(ops, op{kind: 0, x: uint64(rng.Intn(2))})
				w.WriteBit(ops[len(ops)-1].x == 1)
			case 1:
				width := rng.Intn(65)
				x := rng.Uint64() >> uint(64-width)
				ops = append(ops, op{kind: 1, x: x, width: width})
				w.WriteUint(x, width)
			case 2:
				nb := rng.Intn(301)
				v := New(nb)
				for j := 0; j < nb; j++ {
					v.Set(j, rng.Intn(2) == 1)
				}
				ops = append(ops, op{kind: 2, v: v})
				w.WriteVector(v)
			case 3:
				bs := make([]byte, rng.Intn(5))
				rng.Read(bs)
				ops = append(ops, op{kind: 3, bs: bs})
				w.WriteBytes(bs)
			}
		}
		var r Reader
		r.ResetBits(w.Bytes(), w.Len())
		for i, o := range ops {
			switch o.kind {
			case 0:
				b, err := r.ReadBit()
				if err != nil || (b != (o.x == 1)) {
					t.Fatalf("trial %d op %d: bit mismatch (%v, %v)", trial, i, b, err)
				}
			case 1:
				x, err := r.ReadUint(o.width)
				if err != nil || x != o.x {
					t.Fatalf("trial %d op %d: uint %x != %x (%v)", trial, i, x, o.x, err)
				}
			case 2:
				v, err := r.ReadVector(o.v.Len())
				if err != nil || !v.Equal(o.v) {
					t.Fatalf("trial %d op %d: vector mismatch (%v)", trial, i, err)
				}
			case 3:
				got := make([]byte, len(o.bs))
				for j := range got {
					x, err := r.ReadUint(8)
					if err != nil {
						t.Fatalf("trial %d op %d: %v", trial, i, err)
					}
					got[j] = byte(x)
				}
				if !bytes.Equal(got, o.bs) {
					t.Fatalf("trial %d op %d: bytes mismatch", trial, i)
				}
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("trial %d: %d bits left over", trial, r.Remaining())
		}
	}
}

// writeBits is the per-bit reference the word-wide writers replaced:
// the low n bits of x, one WriteBit each.
func writeBits(w *Writer, x uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(x>>uint(i)&1 == 1)
	}
}

// TestWriterReaderEveryAlignment writes a vector of every length
// 1…300 at every start alignment, fenced by integer fields, and holds
// the packed bytes to a WriteBit-only reference before reading the
// three fields back.
func TestWriterReaderEveryAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for align := 0; align < 8; align++ {
		for nb := 1; nb <= 300; nb++ {
			v := New(nb)
			for j := 0; j < nb; j++ {
				v.Set(j, rng.Intn(2) == 1)
			}
			width := nb % 65
			x := rng.Uint64() >> uint(64-width)
			lead := rng.Uint64() >> uint(64-align)

			var w, ref Writer
			w.WriteUint(lead, align)
			w.WriteVector(v)
			w.WriteUint(x, width)
			writeBits(&ref, lead, align)
			for j := 0; j < nb; j++ {
				ref.WriteBit(v.Bit(j))
			}
			writeBits(&ref, x, width)
			if w.Len() != ref.Len() || !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("align %d nb %d: packed %x, reference %x", align, nb, w.Bytes(), ref.Bytes())
			}

			var r Reader
			r.ResetBits(w.Bytes(), w.Len())
			if got, err := r.ReadUint(align); err != nil || got != lead {
				t.Fatalf("align %d nb %d: lead %x != %x (%v)", align, nb, got, lead, err)
			}
			if got, err := r.ReadVector(nb); err != nil || !got.Equal(v) {
				t.Fatalf("align %d nb %d: vector mismatch (%v)", align, nb, err)
			}
			if got, err := r.ReadUint(width); err != nil || got != x {
				t.Fatalf("align %d nb %d: uint %x != %x (%v)", align, nb, got, x, err)
			}
			if r.Remaining() != 0 {
				t.Fatalf("align %d nb %d: %d bits left over", align, nb, r.Remaining())
			}
		}
	}
}
