package bitvec

import (
	"bytes"
	"math/rand"
	"testing"
)

// copyBitsSlow is the obviously-correct reference.
func copyBitsSlow(dst []byte, dstOff int, src []byte, srcOff, nbits int) {
	for i := 0; i < nbits; i++ {
		b := src[(srcOff+i)>>3]>>(7-uint((srcOff+i)&7))&1 == 1
		mask := byte(1) << (7 - uint((dstOff+i)&7))
		if b {
			dst[(dstOff+i)>>3] |= mask
		} else {
			dst[(dstOff+i)>>3] &^= mask
		}
	}
}

func TestCopyBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		src := make([]byte, 1+rng.Intn(40))
		rng.Read(src)
		dstA := make([]byte, 1+rng.Intn(40))
		rng.Read(dstA)
		dstB := append([]byte(nil), dstA...)
		maxSrc := len(src) * 8
		maxDst := len(dstA) * 8
		srcOff := rng.Intn(maxSrc + 1)
		dstOff := rng.Intn(maxDst + 1)
		n := 0
		if lim := min(maxSrc-srcOff, maxDst-dstOff); lim > 0 {
			n = rng.Intn(lim + 1)
		}
		CopyBits(dstA, dstOff, src, srcOff, n)
		copyBitsSlow(dstB, dstOff, src, srcOff, n)
		for i := range dstA {
			if dstA[i] != dstB[i] {
				t.Fatalf("trial %d (srcOff=%d dstOff=%d n=%d): byte %d differs %02x != %02x",
					trial, srcOff, dstOff, n, i, dstA[i], dstB[i])
			}
		}
	}
}

func TestCopyBitsPreservesSurroundings(t *testing.T) {
	dst := []byte{0xFF, 0xFF, 0xFF}
	src := []byte{0x00, 0x00}
	CopyBits(dst, 5, src, 3, 10) // clears bits 5..14
	want := []byte{0xF8, 0x01, 0xFF}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("dst = %x, want %x", dst, want)
		}
	}
}

func TestCopyBitsPanics(t *testing.T) {
	for _, tc := range []struct{ dstOff, srcOff, n int }{
		{0, 0, 99}, {0, 9, 8}, {9, 0, 8}, {0, 0, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", tc)
				}
			}()
			CopyBits(make([]byte, 2), tc.dstOff, make([]byte, 2), tc.srcOff, tc.n)
		}()
	}
}

// putUintSlow and uintSlowRef are the per-bit loops PutUint and Uint
// replaced, kept as their reference.
func putUintSlow(dst []byte, off int, v uint64, n int) {
	for i := 0; i < n; i++ {
		mask := byte(1) << (7 - uint((off+i)&7))
		if v>>uint(n-1-i)&1 == 1 {
			dst[(off+i)>>3] |= mask
		} else {
			dst[(off+i)>>3] &^= mask
		}
	}
}

func uintSlowRef(src []byte, off, n int) uint64 {
	var x uint64
	for i := 0; i < n; i++ {
		x = x<<1 | uint64(src[(off+i)>>3]>>(7-uint((off+i)&7))&1)
	}
	return x
}

// TestUintPutUintMatchReference covers every start alignment, every
// width and every distance from the field's end to the end of the
// buffer that selects a different load/store shape (one window, two
// windows, the byte loop over the last bytes), over both backgrounds.
func TestUintPutUintMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, fill := range []byte{0xFF, 0x00} {
		for lead := 0; lead <= 1; lead++ {
			for align := 0; align < 8; align++ {
				for n := 0; n <= 64; n++ {
					for dist := 0; dist <= 9; dist++ {
						off := lead*8 + align
						got := bytes.Repeat([]byte{fill}, (off+n+7)/8+dist)
						want := bytes.Clone(got)
						// Bits of v above the field must be ignored.
						v := rng.Uint64()
						PutUint(got, off, v, n)
						putUintSlow(want, off, v, n)
						if !bytes.Equal(got, want) {
							t.Fatalf("fill %02x off %d n %d dist %d: PutUint %x, reference %x", fill, off, n, dist, got, want)
						}
						x := Uint(got, off, n)
						if ref := uintSlowRef(want, off, n); x != ref || (n < 64 && x != v&(1<<uint(n)-1)) {
							t.Fatalf("fill %02x off %d n %d dist %d: Uint %x, reference %x, stored %x", fill, off, n, dist, x, ref, v)
						}
					}
				}
			}
		}
	}
}

func TestWrap(t *testing.T) {
	buf := []byte{0xAB, 0xFF}
	v := Wrap(buf, 12)
	if v.Len() != 12 {
		t.Fatalf("Len = %d", v.Len())
	}
	// Tail bits must have been cleared in the shared buffer.
	if buf[1] != 0xF0 {
		t.Fatalf("tail not cleared: %02x", buf[1])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size mismatch")
		}
	}()
	Wrap(buf, 20)
}

func BenchmarkCopyBitsUnaligned(b *testing.B) {
	src := make([]byte, 32)
	dst := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(31)
	for i := 0; i < b.N; i++ {
		CopyBits(dst, 0, src, 9, 247)
	}
}

// BenchmarkFieldIO packs and reads back the stream's hit record — the
// 1/8/1/15-bit fields of encodeChunk at m = 8, idBits = 15 — through
// the two field primitives, 64 records to a buffer.
func BenchmarkFieldIO(b *testing.B) {
	widths := [4]int{1, 8, 1, 15}
	buf := make([]byte, 64*25/8)
	var sum uint64
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		off := 0
		for rec := 0; rec < 64; rec++ {
			for _, n := range widths {
				PutUint(buf, off, uint64(i+rec), n)
				off += n
			}
		}
		off = 0
		for rec := 0; rec < 64; rec++ {
			for _, n := range widths {
				sum += Uint(buf, off, n)
				off += n
			}
		}
	}
	sinkUint = sum
}

var sinkUint uint64
