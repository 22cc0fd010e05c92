package bitvec

import "encoding/binary"

// CopyBits copies nbits bits from src starting at bit srcOff into dst
// starting at bit dstOff, overwriting the destination bits and
// leaving all other dst bits untouched. Offsets are MSB-first bit
// positions. Once the destination is byte-aligned, interior bits move
// eight bytes per step (a shifted 64-bit load/store), so arbitrary
// misalignment costs roughly one shift per word rather than per byte.
//
//zipline:noalloc
func CopyBits(dst []byte, dstOff int, src []byte, srcOff, nbits int) {
	if nbits < 0 {
		panic("bitvec: negative bit count")
	}
	if srcOff+nbits > len(src)*8 || dstOff+nbits > len(dst)*8 {
		panic("bitvec: CopyBits out of range")
	}
	// Fully byte-aligned fast path.
	if dstOff&7 == 0 && srcOff&7 == 0 {
		n := nbits >> 3
		copy(dst[dstOff>>3:dstOff>>3+n], src[srcOff>>3:srcOff>>3+n])
		if rem := nbits & 7; rem != 0 {
			mask := byte(0xFF) << (8 - uint(rem))
			di := dstOff>>3 + n
			dst[di] = dst[di]&^mask | src[srcOff>>3+n]&mask
		}
		return
	}
	// Align the destination to a byte boundary (at most one partial
	// byte), then stream whole words: each output word is one shifted
	// 64-bit source load plus the spill byte that the shift exposes.
	if db := dstOff & 7; db != 0 && nbits >= 8 {
		w := 8 - db
		v := extractBits(src, srcOff, w)
		mask := byte(1<<uint(w) - 1)
		di := dstOff >> 3
		dst[di] = dst[di]&^mask | byte(v)&mask
		dstOff += w
		srcOff += w
		nbits -= w
	}
	if dstOff&7 == 0 {
		sh := uint(srcOff & 7)
		si, di := srcOff>>3, dstOff>>3
		for nbits >= 64 && si+9 <= len(src) {
			v := binary.BigEndian.Uint64(src[si:])
			if sh > 0 {
				v = v<<sh | uint64(src[si+8])>>(8-sh)
			}
			binary.BigEndian.PutUint64(dst[di:], v)
			si += 8
			di += 8
			srcOff += 64
			dstOff += 64
			nbits -= 64
		}
		// A 32-bit stride picks up most of what the word loop leaves
		// when the source runs out of spill headroom near its end.
		for nbits >= 32 && si+5 <= len(src) {
			v := binary.BigEndian.Uint32(src[si:])
			if sh > 0 {
				v = v<<sh | uint32(src[si+4])>>(8-sh)
			}
			binary.BigEndian.PutUint32(dst[di:], v)
			si += 4
			di += 4
			srcOff += 32
			dstOff += 32
			nbits -= 32
		}
	}
	for nbits > 0 {
		db := dstOff & 7
		w := 8 - db
		if w > nbits {
			w = nbits
		}
		v := extractBits(src, srcOff, w)
		shift := uint(8 - db - w)
		mask := byte(1<<uint(w)-1) << shift
		di := dstOff >> 3
		dst[di] = dst[di]&^mask | byte(v<<shift)&mask
		dstOff += w
		srcOff += w
		nbits -= w
	}
}

// extractBits returns w (≤ 8) bits of src starting at bit off,
// right-aligned in the result.
func extractBits(src []byte, off, w int) byte {
	si := off >> 3
	v := uint16(src[si]) << 8
	if si+1 < len(src) {
		v |= uint16(src[si+1])
	}
	v <<= uint(off & 7)
	return byte(v >> (16 - uint(w)))
}

// Uint returns the n (≤ 64) bits of src starting at bit off, MSB
// first, right-aligned in the result. A field of up to 57 bits with
// eight bytes under its first one is a single shifted 64-bit load.
//
//zipline:noalloc
func Uint(src []byte, off, n int) uint64 {
	if si := off >> 3; n <= 57 && si+8 <= len(src) {
		return binary.BigEndian.Uint64(src[si:]) << uint(off&7) >> uint(64-n)
	}
	return uintSlow(src, off, n)
}

// uintSlow is Uint for the cases one load cannot serve: a field wider
// than the 57 bits a window guarantees at any alignment is read as two
// fields, and in the last bytes of src the window is assembled from
// the bytes the field covers and no others.
func uintSlow(src []byte, off, n int) uint64 {
	if n > 57 {
		return Uint(src, off, n-32)<<32 | Uint(src, off+n-32, 32)
	}
	var w uint64
	si := off >> 3
	for i, end := si, (off+n+7)>>3; i < end; i++ {
		w |= uint64(src[i]) << uint(56-8*(i-si))
	}
	return w << uint(off&7) >> uint(64-n)
}

// PutUint deposits the low n (≤ 64) bits of v into dst starting at
// bit off, MSB first, leaving every other bit of dst untouched: the
// store that mirrors Uint's load, split the same way.
//
//zipline:noalloc
func PutUint(dst []byte, off int, v uint64, n int) {
	if n > 57 {
		PutUint(dst, off, v>>32, n-32)
		off, n = off+n-32, 32
	}
	// The field as it sits in the 64-bit window that starts at its
	// first byte, and the window bits it owns.
	di, sh := off>>3, uint(off&7)
	mask := ^uint64(0) << uint(64-n) >> sh
	w := v << uint(64-n) >> sh
	if di+8 <= len(dst) {
		binary.BigEndian.PutUint64(dst[di:], binary.BigEndian.Uint64(dst[di:])&^mask|w)
		return
	}
	for i, end := di, (off+n+7)>>3; i < end; i++ {
		s := uint(56 - 8*(i-di))
		dst[i] = dst[i]&^byte(mask>>s) | byte(w>>s)
	}
}

// Wrap builds an n-bit vector that takes ownership of data (no copy).
// The caller must not reuse data afterwards, and data must be exactly
// ceil(n/8) bytes with any trailing pad bits already zero. It exists
// for hot paths that have just assembled a fresh buffer.
func Wrap(data []byte, n int) *Vector {
	if len(data) != (n+7)/8 {
		panic("bitvec: Wrap buffer size mismatch")
	}
	v := &Vector{data: data, n: n}
	v.clearTail()
	return v
}
