package packet

import (
	"fmt"
	"slices"

	"zipline/internal/bitvec"
	"zipline/internal/gd"
)

// Format defines the wire layout of ZipLine type 2 and type 3
// payloads for a given codec geometry.
//
// Aligned layout (the Tofino artifact, paper §6/§7):
//
//	type 2: [syndrome ⌈m/8⌉B] [extra 1B] [basis ⌈k/8⌉B] [tail...]
//	type 3: [syndrome ⌈m/8⌉B] [extra|ID ⌈(e+t)/8⌉B]     [tail...]
//
// The dedicated extra byte in type 2 is the 8-bit padding the paper
// says "could be eliminated by an expert P4₁₆/TNA programmer"; with
// m=8, t=15 this reproduces the published sizes exactly: 33 B and
// 3 B per 32 B chunk.
//
// Packed layout bit-packs [syndrome|extra|basis] and
// [syndrome|extra|ID] with only final byte-rounding, the minimal
// framing GD admits.
//
// Payload bytes beyond the encoded region are an uncompressed tail,
// forwarded verbatim (frames carrying more than one chunk of data
// keep everything after the first chunk untouched, mirroring how the
// hardware parser extracts a fixed-size header region).
type Format struct {
	m      int // deviation (syndrome) bits
	k      int // basis bits
	extra  int // carried MSBs (chunk bits bypassing the transform)
	idBits int // dictionary identifier bits
	align  bool
}

// NewFormat derives the wire format from a codec, an identifier
// width, and the alignment flavour.
func NewFormat(c *gd.Codec, idBits int, align bool) (Format, error) {
	if idBits < 1 || idBits > 24 {
		return Format{}, fmt.Errorf("packet: idBits %d out of range [1,24]", idBits)
	}
	return Format{
		m:      c.DeviationBits(),
		k:      c.BasisBits(),
		extra:  c.ExtraBits(),
		idBits: idBits,
		align:  align,
	}, nil
}

// MustFormat is NewFormat, panicking on error.
func MustFormat(c *gd.Codec, idBits int, align bool) Format {
	f, err := NewFormat(c, idBits, align)
	if err != nil {
		panic(err)
	}
	return f
}

// Aligned reports whether the format uses the Tofino byte-aligned
// layout.
func (f Format) Aligned() bool { return f.align }

// IDBits returns the identifier width in bits.
func (f Format) IDBits() int { return f.idBits }

// Type2Len returns the byte length of the encoded region of a type 2
// payload.
func (f Format) Type2Len() int {
	if f.align {
		return (f.m+7)/8 + 1 + (f.k+7)/8
	}
	return (f.m + f.extra + f.k + 7) / 8
}

// Type3Len returns the byte length of the encoded region of a type 3
// payload.
func (f Format) Type3Len() int {
	if f.align {
		return (f.m+7)/8 + (f.extra+f.idBits+7)/8
	}
	return (f.m + f.extra + f.idBits + 7) / 8
}

// appendBitsMSB appends the low nbits of v to dst MSB-first,
// left-aligned into ceil(nbits/8) bytes with zero padding bits at the
// tail — the moral equivalent of Writer.WriteUint followed by Pad,
// without the Writer. nbits must be ≤ 64.
func appendBitsMSB(dst []byte, v uint64, nbits int) []byte {
	nb := (nbits + 7) / 8
	v <<= uint(nb*8 - nbits)
	for j := nb - 1; j >= 0; j-- {
		dst = append(dst, byte(v>>uint(8*j)))
	}
	return dst
}

// AppendType2 appends the encoded region of a type 2 payload to dst.
func (f Format) AppendType2(dst []byte, s gd.Split) []byte {
	return f.AppendType2Bytes(dst, s.Basis.Bytes(), s.Deviation, s.Extra)
}

// AppendType2Bytes is AppendType2 on a raw basis buffer of exactly
// ceil(BasisBits/8) bytes (tail padding bits must be zero). With dst
// capacity to spare it allocates nothing — the switch encode path.
//
//zipline:noalloc
func (f Format) AppendType2Bytes(dst []byte, basis []byte, deviation uint32, extra uint8) []byte {
	if f.align {
		dst = appendBitsMSB(dst, uint64(deviation), f.m)
		dst = append(dst, extra) // the paper's removable pad byte
		return append(dst, basis...)
	}
	// Packed: [deviation|extra] bit-concatenated, then the basis bits
	// immediately after, byte-rounded at the very end only.
	base := len(dst)
	n := f.Type2Len()
	dst = slices.Grow(dst, n)[:base+n]
	buf := dst[base:]
	clear(buf)
	lead := f.m + f.extra
	bitvec.PutUint(buf, 0, uint64(deviation)<<uint(f.extra)|uint64(extra), lead)
	bitvec.CopyBits(buf, lead, basis, 0, f.k)
	return dst
}

// ParseType2 decodes the encoded region of a type 2 payload,
// returning the split and the verbatim tail (a sub-slice of payload).
func (f Format) ParseType2(payload []byte) (gd.Split, []byte, error) {
	basis, dev, extra, tail, err := f.ParseType2Bytes(payload, nil)
	if err != nil {
		return gd.Split{}, nil, err
	}
	return gd.Split{
		Basis:     bitvec.FromBytes(basis, f.k),
		Deviation: dev,
		Extra:     extra,
	}, tail, nil
}

// ParseType2Bytes decodes the encoded region of a type 2 payload
// without building a bit vector. In the aligned layout the returned
// basis aliases payload directly; in the packed layout the basis bits
// are extracted into basisScratch, whose capacity is reused
// append-style (pass the previous return value, or nil on first use).
// Tail padding bits of the basis are not cleared — consumers such as
// Codec.MergeChunkBytes ignore them.
//
//zipline:noalloc
func (f Format) ParseType2Bytes(payload, basisScratch []byte) (basis []byte, deviation uint32, extra uint8, tail []byte, err error) {
	enc := f.Type2Len()
	if len(payload) < enc {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return basisScratch, 0, 0, nil, fmt.Errorf("packet: type 2 payload %d bytes, need %d", len(payload), enc)
	}
	deviation = uint32(bitvec.Uint(payload, 0, f.m))
	kb := (f.k + 7) / 8
	if f.align {
		eOff := (f.m + 7) / 8
		e := payload[eOff]
		if e>>uint(f.extra) != 0 {
			//ziplint:allow noalloc cold validation branch; never taken on well-formed input
			return basisScratch, 0, 0, nil, fmt.Errorf("packet: type 2 extra field %#x exceeds %d bits", e, f.extra)
		}
		return payload[eOff+1 : eOff+1+kb], deviation, e, payload[enc:], nil
	}
	lead := f.m + f.extra
	extra = uint8(bitvec.Uint(payload, f.m, f.extra))
	basis = slices.Grow(basisScratch[:0], kb)[:kb]
	bitvec.CopyBits(basis, 0, payload, lead, f.k)
	if pad := kb*8 - f.k; pad > 0 {
		basis[kb-1] &^= byte(1<<uint(pad)) - 1
	}
	return basis, deviation, extra, payload[enc:], nil
}

// Compressed is the content of a type 3 encoded region: the per-chunk
// residue plus the dictionary identifier standing in for the basis.
type Compressed struct {
	Deviation uint32
	Extra     uint8
	ID        uint32
}

// AppendType3 appends the encoded region of a type 3 payload to dst.
// With dst capacity to spare it allocates nothing.
//
//zipline:noalloc
func (f Format) AppendType3(dst []byte, c Compressed) []byte {
	if f.align {
		dst = appendBitsMSB(dst, uint64(c.Deviation), f.m)
		return appendBitsMSB(dst, uint64(c.Extra)<<uint(f.idBits)|uint64(c.ID), f.extra+f.idBits)
	}
	return appendBitsMSB(dst,
		uint64(c.Deviation)<<uint(f.extra+f.idBits)|uint64(c.Extra)<<uint(f.idBits)|uint64(c.ID),
		f.m+f.extra+f.idBits)
}

// ParseType3 decodes the encoded region of a type 3 payload,
// returning the compressed record and the verbatim tail. It does not
// allocate.
//
//zipline:noalloc
func (f Format) ParseType3(payload []byte) (Compressed, []byte, error) {
	enc := f.Type3Len()
	if len(payload) < enc {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return Compressed{}, nil, fmt.Errorf("packet: type 3 payload %d bytes, need %d", len(payload), enc)
	}
	// The region is whole bytes, at most eight: one big-endian window,
	// the fields shifted out of it from the right. Each byte-rounded
	// group ends in pad bits: one after [deviation|extra|ID] when packed,
	// one after the deviation and one after [extra|ID] when aligned.
	var w uint64
	for _, b := range payload[:enc] {
		w = w<<8 | uint64(b)
	}
	low := f.extra + f.idBits
	pad, devPad := -(f.m+low)&7, 0
	if f.align {
		pad, devPad = -low&7, -f.m&7
	}
	w >>= uint(pad)
	c := Compressed{
		Deviation: uint32(w >> uint(low+devPad)),
		Extra:     uint8(w >> uint(f.idBits) & (1<<uint(f.extra) - 1)),
		ID:        uint32(w & (1<<uint(f.idBits) - 1)),
	}
	return c, payload[enc:], nil
}
