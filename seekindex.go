package zipline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Seekable-container index (version 4, WithIndex). After the all-zero
// trailer group the Writer appends one footer:
//
//	"ZLIX" | u8 version (1) | u8 flags (0) | u16le reserved
//	u32le groupCount | u32le checkpointCount | u32le watermark
//	u64le uncompTotal | u64le trailerOff
//	groupCount      × { u64le compOff | u64le uncompOff }
//	checkpointCount × u32le groupIndex
//	u32le crc32 (IEEE, of every byte above)
//	u32le footerLen (whole footer, leading magic through trailing magic)
//	"XILZ"
//
// compOff is the byte offset of a group's header from the start of the
// container; uncompOff is the uncompressed offset of the group's first
// byte. trailerOff locates the end-of-stream trailer group, so the
// last group's extent is known without reading it. watermark is the
// frozen-prefix identifier watermark: at every checkpoint group the
// basis dictionary holds exactly the identifiers [0, watermark) of the
// shared pre-trained Dict (0 without one) — the Writer reset its
// dynamic entries there and marked the group with the in-band
// checkpoint group flag, so a checkpoint group can be decoded knowing
// nothing but the Dict. Checkpoints are what make the stream seekable
// and its decode parallel: any [checkpoint, next checkpoint) span of
// groups is independent of the rest of the stream.
//
// A reader finds the footer from the end of a seekable source: the
// last 8 bytes carry the footer length and a closing magic, and the
// CRC covers everything before them, so truncation or corruption
// anywhere in the footer is detected rather than misparsed. The
// footer sits after the trailer group, where a pre-index reader —
// which stops at the trailer — never reads, so indexed streams stay
// decodable by every stream-oriented consumer.
const (
	indexMagic    = "ZLIX"
	indexEndMagic = "XILZ"
	indexVersion  = 1

	indexFixedLen = 36 // leading magic through trailerOff
	indexTailLen  = 12 // crc | footerLen | closing magic

	// defaultCheckpointBytes is the uncompressed distance between
	// dictionary checkpoints under WithIndex(0): small enough that a
	// 64 KiB object fans out to four independent decode segments,
	// large enough that re-learning the dictionary after each reset
	// costs only a few percent on redundant workloads.
	defaultCheckpointBytes = 16 << 10

	// maxIndexGroups bounds attacker-declared footer sizes before any
	// allocation happens.
	maxIndexGroups = 1 << 26
)

// indexGroup locates one group: its header's byte offset in the
// compressed container and the uncompressed offset of its first byte.
type indexGroup struct{ compOff, uncompOff uint64 }

// streamIndex is a parsed (or, on the write side, accumulated) v4
// trailing index.
type streamIndex struct {
	watermark   uint32
	uncompTotal uint64
	trailerOff  uint64
	groups      []indexGroup
	checkpoints []uint32 // ascending group indices, [0] == 0 when groups exist
}

// appendFooter serializes the index in the trailing-footer layout.
func (ix *streamIndex) appendFooter(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, indexMagic...)
	dst = append(dst, indexVersion, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ix.groups)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ix.checkpoints)))
	dst = binary.LittleEndian.AppendUint32(dst, ix.watermark)
	dst = binary.LittleEndian.AppendUint64(dst, ix.uncompTotal)
	dst = binary.LittleEndian.AppendUint64(dst, ix.trailerOff)
	for _, g := range ix.groups {
		dst = binary.LittleEndian.AppendUint64(dst, g.compOff)
		dst = binary.LittleEndian.AppendUint64(dst, g.uncompOff)
	}
	for _, ck := range ix.checkpoints {
		dst = binary.LittleEndian.AppendUint32(dst, ck)
	}
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dst)-start+8))
	return append(dst, indexEndMagic...)
}

// parseIndexFooter validates footer (the exact footer bytes), found at
// container offset footerOff, and returns the decoded index. Every
// structural invariant is checked up front — magics, CRC, length,
// monotonic offsets, checkpoint bounds, and that the recorded trailer
// group is the 16 bytes right before the footer — so decode paths can
// trust the offsets without re-validating.
func parseIndexFooter(footer []byte, footerOff uint64) (*streamIndex, error) {
	n := len(footer)
	if n < indexFixedLen+indexTailLen {
		return nil, fmt.Errorf("%w: index footer of %d bytes", ErrCorrupt, n)
	}
	if string(footer[n-4:]) != indexEndMagic || string(footer[:4]) != indexMagic {
		return nil, fmt.Errorf("%w: bad index footer magic", ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint32(footer[n-8:]); got != uint32(n) {
		return nil, fmt.Errorf("%w: index footer length %d, holding %d bytes", ErrCorrupt, got, n)
	}
	crcOff := n - indexTailLen
	if got, want := binary.LittleEndian.Uint32(footer[crcOff:]), crc32.ChecksumIEEE(footer[:crcOff]); got != want {
		return nil, fmt.Errorf("%w: index footer crc %#08x, want %#08x", ErrCorrupt, got, want)
	}
	if footer[4] != indexVersion {
		return nil, fmt.Errorf("%w: unsupported index version %d", ErrCorrupt, footer[4])
	}
	nGroups := binary.LittleEndian.Uint32(footer[8:])
	nCks := binary.LittleEndian.Uint32(footer[12:])
	ix := &streamIndex{
		watermark:   binary.LittleEndian.Uint32(footer[16:]),
		uncompTotal: binary.LittleEndian.Uint64(footer[20:]),
		trailerOff:  binary.LittleEndian.Uint64(footer[28:]),
	}
	if nGroups > maxIndexGroups || nCks > nGroups {
		return nil, fmt.Errorf("%w: index of %d groups, %d checkpoints", ErrCorrupt, nGroups, nCks)
	}
	if want := indexFixedLen + 16*int(nGroups) + 4*int(nCks) + indexTailLen; want != n {
		return nil, fmt.Errorf("%w: index footer is %d bytes, want %d for %d groups", ErrCorrupt, n, want, nGroups)
	}
	if ix.trailerOff+uint64(groupHeaderLen(streamV4)) != footerOff {
		return nil, fmt.Errorf("%w: index trailer offset %d, but the footer starts at %d", ErrCorrupt, ix.trailerOff, footerOff)
	}
	off := indexFixedLen
	ix.groups = make([]indexGroup, nGroups)
	var prev indexGroup
	for i := range ix.groups {
		g := indexGroup{
			compOff:   binary.LittleEndian.Uint64(footer[off:]),
			uncompOff: binary.LittleEndian.Uint64(footer[off+8:]),
		}
		off += 16
		if g.compOff >= ix.trailerOff || (i > 0 && (g.compOff <= prev.compOff || g.uncompOff < prev.uncompOff)) {
			return nil, fmt.Errorf("%w: index group %d offsets out of order", ErrCorrupt, i)
		}
		ix.groups[i] = g
		prev = g
	}
	ix.checkpoints = make([]uint32, nCks)
	var prevCk uint32
	for i := range ix.checkpoints {
		ck := binary.LittleEndian.Uint32(footer[off:])
		off += 4
		if ck >= nGroups || (i > 0 && ck <= prevCk) {
			return nil, fmt.Errorf("%w: index checkpoint %d out of range", ErrCorrupt, i)
		}
		ix.checkpoints[i] = ck
		prevCk = ck
	}
	if nGroups > 0 {
		if nCks == 0 || ix.checkpoints[0] != 0 || ix.groups[0].uncompOff != 0 {
			return nil, fmt.Errorf("%w: index without a leading checkpoint", ErrCorrupt)
		}
		if last := ix.groups[nGroups-1].uncompOff; last > ix.uncompTotal {
			return nil, fmt.Errorf("%w: index group offsets exceed the recorded size", ErrCorrupt)
		}
	} else if ix.uncompTotal != 0 {
		return nil, fmt.Errorf("%w: empty index records %d uncompressed bytes", ErrCorrupt, ix.uncompTotal)
	}
	return ix, nil
}

// readIndexFooter loads and validates the trailing index of a
// seekable source whose container starts at origin and runs to the
// source's end. The read position is left undefined; callers
// reposition afterwards.
func readIndexFooter(rs io.ReadSeeker, origin int64) (*streamIndex, error) {
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	size := end - origin
	if size < indexFixedLen+indexTailLen {
		return nil, fmt.Errorf("%w: no room for an index footer", ErrCorrupt)
	}
	if _, err := rs.Seek(end-8, io.SeekStart); err != nil {
		return nil, err
	}
	var tag [8]byte
	if _, err := io.ReadFull(rs, tag[:]); err != nil {
		return nil, fmt.Errorf("%w: index footer: %w", ErrCorrupt, truncErr(err))
	}
	if string(tag[4:]) != indexEndMagic {
		return nil, fmt.Errorf("%w: missing index footer (container truncated after the trailer?)", ErrCorrupt)
	}
	fl := int64(binary.LittleEndian.Uint32(tag[:4]))
	if fl < indexFixedLen+indexTailLen || fl > size {
		return nil, fmt.Errorf("%w: index footer length %d", ErrCorrupt, fl)
	}
	buf := make([]byte, fl)
	if _, err := rs.Seek(end-fl, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(rs, buf); err != nil {
		return nil, fmt.Errorf("%w: index footer: %w", ErrCorrupt, truncErr(err))
	}
	return parseIndexFooter(buf, uint64(size-fl))
}

// consumeIndexFooter reads and validates the footer from a sequential
// source positioned just past the trailer group, footerOff bytes into
// the container — the streaming reader's truncation check. A version-4
// header promises a footer, so a container cut anywhere after the
// trailer must fail here instead of passing as a clean end of stream.
// The footer is front-parseable: the entry counts precede the entries,
// so the total length is known after the fixed prefix.
func consumeIndexFooter(r io.Reader, footerOff uint64) (*streamIndex, error) {
	var fixed [indexFixedLen]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("%w: index footer: %w", ErrCorrupt, truncErr(err))
	}
	if string(fixed[:4]) != indexMagic {
		return nil, fmt.Errorf("%w: bad index footer magic", ErrCorrupt)
	}
	nGroups := binary.LittleEndian.Uint32(fixed[8:])
	nCks := binary.LittleEndian.Uint32(fixed[12:])
	if nGroups > maxIndexGroups || nCks > nGroups {
		return nil, fmt.Errorf("%w: index of %d groups, %d checkpoints", ErrCorrupt, nGroups, nCks)
	}
	// Grow the footer buffer as bytes actually arrive: the declared
	// counts are attacker-controlled, so sizing the allocation to them
	// up front would let a 36-byte prefix demand a gigabyte.
	total := indexFixedLen + 16*int(nGroups) + 4*int(nCks) + indexTailLen
	buf := append(make([]byte, 0, indexFixedLen+4096), fixed[:]...)
	var chunk [4096]byte
	for len(buf) < total {
		n := total - len(buf)
		if n > len(chunk) {
			n = len(chunk)
		}
		m, err := io.ReadFull(r, chunk[:n])
		buf = append(buf, chunk[:m]...)
		if err != nil {
			return nil, fmt.Errorf("%w: index footer: %w", ErrCorrupt, truncErr(err))
		}
	}
	return parseIndexFooter(buf, footerOff)
}

// checkpointAtOrBefore returns the group index and entry of the last
// checkpoint whose uncompressed offset is at or before target. ok is
// false for a zero-group index.
func (ix *streamIndex) checkpointAtOrBefore(target uint64) (uint32, indexGroup, bool) {
	if len(ix.checkpoints) == 0 {
		return 0, indexGroup{}, false
	}
	i := sort.Search(len(ix.checkpoints), func(i int) bool {
		return ix.groups[ix.checkpoints[i]].uncompOff > target
	}) - 1
	if i < 0 {
		i = 0
	}
	g := ix.checkpoints[i]
	return g, ix.groups[g], true
}

// idxSegment is one independently decodable span of an indexed stream:
// the groups from one checkpoint up to (not including) the next.
type idxSegment struct {
	firstGroup  uint32 // index of the first group == its sequence number
	nGroups     int
	compStart   uint64
	compEnd     uint64
	uncompStart uint64
	uncompEnd   uint64
}

// segments splits the indexed groups at checkpoint boundaries. Each
// segment starts at a dictionary reset, so any worker can decode it
// with a fresh dictionary, independent of every other segment.
func (ix *streamIndex) segments() []idxSegment {
	segs := make([]idxSegment, 0, len(ix.checkpoints))
	for i, ck := range ix.checkpoints {
		seg := idxSegment{
			firstGroup:  ck,
			nGroups:     len(ix.groups) - int(ck),
			compStart:   ix.groups[ck].compOff,
			uncompStart: ix.groups[ck].uncompOff,
			compEnd:     ix.trailerOff,
			uncompEnd:   ix.uncompTotal,
		}
		if i+1 < len(ix.checkpoints) {
			next := ix.checkpoints[i+1]
			seg.nGroups = int(next - ck)
			seg.compEnd = ix.groups[next].compOff
			seg.uncompEnd = ix.groups[next].uncompOff
		}
		segs = append(segs, seg)
	}
	return segs
}

// writerIndex accumulates the trailing index while a serial Writer
// emits a version-4 stream.
type writerIndex struct {
	every      int64 // uncompressed bytes between checkpoints (chunk multiple)
	groups     []indexGroup
	ckpts      []uint32
	pending    bool  // the next group starts at a dictionary reset
	nextCkpt   int64 // uncompressed offset that triggers the next checkpoint
	groupStart int64 // uncompressed offset of the current block's first chunk
}

// reset returns the accumulator to the start-of-stream state, keeping
// the entry slices for a pooled Writer. The stream's first group is
// always a checkpoint: the dictionary is empty (frozen prefix only)
// before the first chunk.
//
//zipline:noalloc
func (ix *writerIndex) reset() {
	ix.groups = ix.groups[:0]
	ix.ckpts = ix.ckpts[:0]
	ix.pending = true
	ix.nextCkpt = ix.every
	ix.groupStart = 0
}

// record registers the group about to be written at compressed offset
// compOff, consuming a pending checkpoint, and returns the group's
// header flags.
func (ix *writerIndex) record(compOff, uncompOff int64) byte {
	ix.groups = append(ix.groups, indexGroup{compOff: uint64(compOff), uncompOff: uint64(uncompOff)})
	if !ix.pending {
		return 0
	}
	ix.pending = false
	ix.ckpts = append(ix.ckpts, uint32(len(ix.groups)-1))
	return groupFlagCheckpoint
}

// decodeSegmentBytes replays one checkpoint segment — seg.nGroups
// groups whose sequence numbers start at seg.firstGroup — out of the
// in-memory container: group headers and bodies are sliced straight out
// of comp (the segment's exact compressed extent) with no intermediate
// reader or body copy, the one-shot fan-out hot path. Framing goes
// through parseGroupHeader and classifyGroup like every other path.
// out must carry no prior segment bytes — the final length is checked
// against the segment's indexed extent. Indexed streams are always
// version 4, so every group carries the 16-byte header.
func decodeSegmentBytes(comp []byte, dec *blockDecoder, shards int, seg idxSegment, out []byte) ([]byte, error) {
	seq := seg.firstGroup
	hdrLen := groupHeaderLen(streamV4)
	for g := 0; g < seg.nGroups; g++ {
		if len(comp) < hdrLen {
			return out, fmt.Errorf("%w: block header: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		h, err := parseGroupHeader(comp[:hdrLen], streamV4, &seq)
		if err != nil {
			return out, err
		}
		if h.byteLen == 0 {
			return out, fmt.Errorf("%w: early trailer inside indexed segment", ErrCorrupt)
		}
		if g == 0 {
			if err := checkIndexedEntry(h, seg.firstGroup); err != nil {
				return out, err
			}
		}
		comp = comp[hdrLen:]
		if uint64(len(comp)) < uint64(h.byteLen) {
			return out, fmt.Errorf("%w: block body: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		b := comp[:h.byteLen]
		comp = comp[h.byteLen:]
		tail, isTail, err := classifyGroup(h, shards, b)
		if err != nil {
			return out, err
		}
		if isTail {
			dec.stats.TailBytes += uint64(len(tail))
			out = append(out, tail...)
			continue
		}
		if out, err = dec.decodeGroup(h, b, out); err != nil {
			return out, err
		}
	}
	if want := seg.uncompEnd - seg.uncompStart; uint64(len(out)) != want || len(comp) != 0 {
		return out, fmt.Errorf("%w: indexed segment decoded to %d bytes with %d left over, want %d and 0", ErrCorrupt, len(out), len(comp), want)
	}
	return out, nil
}

// decodeAllIndexed is the fan-out path behind DecodeAll for a Reader
// with workers > 1: when src carries a valid trailing index with at
// least two checkpoint segments, the segments are decoded concurrently
// into disjoint regions of one output buffer — no stitching copies.
// ok reports whether the fan-out applied; when false (not indexed,
// sharded container, or a single segment) the caller falls back to
// the serial pooled path, which reproduces any header error with the
// same text. A corrupt footer on an indexed stream is an error, not a
// fallback: the caller asked for index-driven decoding and the index
// is lying.
//
// This walk stays beside the parReader lanes on a measurement: draining
// the lanes into dst instead halved BenchmarkDecodeAllIndexed (64 KiB,
// 4 workers: 456–507 → 237–273 MB/s, 16 → 113 allocs/op, 1.4 → 210
// KB/op), because lanes build their decoders, dictionaries and body
// and output pools per stream, while idxDecState keeps them across
// calls and the segments decode straight into dst.
func (zr *Reader) decodeAllIndexed(src, dst []byte) (out []byte, ok bool, err error) {
	st, _ := zr.iPool.Get().(*idxDecState)
	if st == nil {
		st = &idxDecState{}
	}
	defer zr.iPool.Put(st)
	br := bytes.NewReader(src)
	var phdr [16]byte
	info, err := parseStreamHeader(br, st.codec, &phdr)
	if err != nil || !info.hasIndex || info.shards != 1 {
		return dst, false, nil
	}
	dict, err := validateStreamDict(info, zr.set.dict)
	if err != nil {
		return dst, true, err
	}
	if info.codec != st.codec || dict != st.dict {
		// A reconfigured codec, or a dict-framed stream after a plain
		// one (or vice versa): the pooled decoders' stream dictionaries
		// are keyed to the old codec or carry the wrong frozen prefix.
		st.codec, st.dict = info.codec, dict
		clear(st.decs)
	}
	ix, err := readIndexFooter(br, 0)
	if err != nil {
		return dst, true, err
	}
	segs := ix.segments()
	if len(segs) < 2 {
		return dst, false, nil
	}
	// Hold the index to the walk a serial Reader would take: groups
	// start right after the header and end at a trailer group.
	if ix.groups[0].compOff != uint64(info.size) || binary.LittleEndian.Uint32(src[ix.trailerOff:]) != 0 {
		return dst, true, fmt.Errorf("%w: index does not match the container's framing", ErrCorrupt)
	}
	// Sanity-bound the up-front allocation: a record costs at least
	// tag + deviation bits, so the recorded total cannot exceed what
	// the compressed payload could possibly expand to.
	cs := uint64(info.codec.ChunkSize())
	minRecordBits := uint64(info.codec.DeviationBits()) + 2
	if maxOut := (ix.trailerOff*8/minRecordBits+1)*cs + ix.trailerOff; ix.uncompTotal > maxOut {
		return dst, true, fmt.Errorf("%w: index records implausible %d uncompressed bytes", ErrCorrupt, ix.uncompTotal)
	}
	base := len(dst)
	need := base + int(ix.uncompTotal)
	if cap(dst) >= need {
		out = dst[:need]
	} else {
		out = make([]byte, need)
		copy(out, dst)
	}

	workers := min(zr.set.workers, len(segs))
	for len(st.decs) < workers {
		st.decs = append(st.decs, nil)
	}
	errs := make([]error, len(segs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		dec := st.decs[w]
		if dec == nil {
			var stats StreamStats
			dec = newBlockDecoder(info.codec, &stats, dict)
			st.decs[w] = dec
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(segs) {
					return
				}
				seg := segs[i]
				dec.dict.Reset()
				region := out[base+int(seg.uncompStart) : base+int(seg.uncompStart) : base+int(seg.uncompEnd)]
				// decodeSegmentBytes verifies the decoded length, and a
				// region overrun forces a reallocation that trips it.
				_, errs[i] = decodeSegmentBytes(src[seg.compStart:seg.compEnd], dec, info.shards, seg, region)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return dst, true, err
		}
	}
	return out, true, nil
}

// idxDecState is the pooled per-call state of decodeAllIndexed: the
// parsed codec and one block decoder (stream dictionary included) per
// worker, so the steady state rebuilds neither transform tables nor
// dictionaries. Decoders are lazily (re)built when the worker count
// grows or the header's configuration changes.
type idxDecState struct {
	codec *Codec
	dict  *Dict
	decs  []*blockDecoder
}
