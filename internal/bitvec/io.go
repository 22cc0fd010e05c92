package bitvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrShortBuffer is returned by Reader when a read runs past the end
// of the underlying data.
var ErrShortBuffer = errors.New("bitvec: read past end of buffer")

// Writer packs bits MSB-first into a growing byte slice. It is the
// serialisation half of ZipLine's non-byte-aligned wire formats.
// The zero value is ready for use.
type Writer struct {
	buf  []byte
	nbit int
}

// NewWriter returns a Writer with capacity preallocated for sizeHint
// bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit&7 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit>>3] |= 1 << (7 - uint(w.nbit&7))
	}
	w.nbit++
}

// WriteUint appends the low n bits of x, most significant first.
func (w *Writer) WriteUint(x uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitvec: WriteUint width %d out of range", n))
	}
	w.grow(n)
	// The spare capacity lets the last bytes take PutUint's one-window store.
	PutUint(w.buf[:cap(w.buf)], w.nbit, x, n)
	w.nbit += n
}

// WriteVector appends every bit of v.
func (w *Writer) WriteVector(v *Vector) { w.WriteBits(v.data, v.n) }

// WriteBits appends the first n bits of src, MSB first.
func (w *Writer) WriteBits(src []byte, n int) {
	w.grow(n)
	CopyBits(w.buf, w.nbit, src, 0, n)
	w.nbit += n
}

// grow extends the buffer with zero bytes until it holds n more bits.
// It reslices and clears instead of appending a fresh zero slice: the
// compiler elides that slice's allocation, but not under -race.
func (w *Writer) grow(n int) {
	if need := (w.nbit + n + 7) >> 3; need > len(w.buf) {
		if need > cap(w.buf) {
			w.buf = slices.Grow(w.buf, need-len(w.buf))
		}
		old := len(w.buf)
		w.buf = w.buf[:need]
		clear(w.buf[old:])
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the packed bytes; the final partial byte (if any) is
// zero padded. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, retaining the allocation.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Reader consumes bits MSB-first from a byte slice. It is the parsing
// half of ZipLine's wire formats. Reads past the end return
// ErrShortBuffer.
type Reader struct {
	data []byte
	pos  int // next bit position
	n    int // total bits available
}

// ResetBits rewinds the Reader over the first nbits of data, so a
// long-lived Reader can parse a stream of blocks without allocating
// one parser per block.
//
//zipline:noalloc
func (r *Reader) ResetBits(data []byte, nbits int) {
	if nbits > len(data)*8 {
		panic(fmt.Sprintf("bitvec: ResetBits %d > %d available", nbits, len(data)*8))
	}
	r.data, r.pos, r.n = data, 0, nbits
}

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.n {
		return false, ErrShortBuffer
	}
	b := r.data[r.pos>>3]>>(7-uint(r.pos&7))&1 == 1
	r.pos++
	return b, nil
}

// ReadUint consumes n bits and returns them as an unsigned integer,
// first bit read being the most significant.
//
//zipline:noalloc
func (r *Reader) ReadUint(n int) (uint64, error) {
	if n < 0 || n > 64 {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		panic(fmt.Sprintf("bitvec: ReadUint width %d out of range", n))
	}
	if r.pos+n > r.n {
		return 0, ErrShortBuffer
	}
	// Uint's one-load case is repeated here: Uint is over the inliner's
	// budget, and a second call per field takes the record-decode loop
	// (three fields a record) from 12 to 15 ns a record.
	var x uint64
	if si := r.pos >> 3; n <= 57 && si+8 <= len(r.data) {
		x = binary.BigEndian.Uint64(r.data[si:]) << uint(r.pos&7) >> uint(64-n)
	} else {
		x = uintSlow(r.data, r.pos, n)
	}
	r.pos += n
	return x, nil
}

// ReadVector consumes n bits into a new Vector.
func (r *Reader) ReadVector(n int) (*Vector, error) {
	if r.pos+n > r.n {
		return nil, ErrShortBuffer
	}
	out := New(n)
	return out, r.ReadBits(out.data, n)
}

// ReadBits consumes n bits into the first n bits of dst, MSB first,
// leaving dst's other bits untouched.
//
//zipline:noalloc
func (r *Reader) ReadBits(dst []byte, n int) error {
	if r.pos+n > r.n {
		return ErrShortBuffer
	}
	CopyBits(dst, 0, r.data, r.pos, n)
	r.pos += n
	return nil
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.n - r.pos }

// Pos returns the number of bits consumed so far.
func (r *Reader) Pos() int { return r.pos }
