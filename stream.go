package zipline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"zipline/internal/bitvec"
	"zipline/internal/gd"
)

// Stream container format. A container is a header, a run of groups
// and a trailer; the four versions differ only in how much framing the
// writer's options made it spend (doc.go and the README's API section
// give the wider picture).
//
//	header:  "ZLGD" | version u8 | m u8 | idBits u8 | t u8
//	  v2+:   u8 shards | u8 flags (0 before v3) | u8 reserved ×2
//	  flagDict (v3+): u32le dictID | u32le dictBases
//	group:   u32le byteLen | u32le bitLen | body
//	  v2+:   … | u32le seq | u8 shard | u8 groupFlags (0 before v4) | u8 reserved ×2 | body
//	trailer: a group header with byteLen == 0, all zero
//	  flagIndex (v4): followed by the index footer (seekindex.go)
//
// A group's body is bit-packed records that never straddle groups:
//
//	tag 0 (1 bit)  miss: deviation(m) | extra(1) | basis(k)
//	tag 1 (1 bit)  hit:  deviation(m) | extra(1) | id(idBits)
//
// or, when bitLen carries tailBlockFlag, the raw tail — the input bytes
// that did not fill a last chunk: 0xFF | u16le length | bytes.
//
// Misses insert the basis into an LRU dictionary; the decoder applies
// identical insertions and lookups, so identifier assignment evolves
// in lockstep on both sides without any side channel — the streaming
// analogue of the control-plane protocol. Everything else in the
// framing says which dictionary timeline a group belongs to:
//
//   - Version 1 (the default writer) has one timeline and spends 8
//     bytes per group header.
//   - Version 2 (WithWorkers(n > 1)) has one timeline per shard. seq
//     counts groups from zero; shard names the dictionary the group's
//     records were encoded against (segment seq goes to shard seq mod
//     shards, and each shard's groups appear in that shard's encode
//     order), so a decoder keeps one dictionary per shard.
//   - Version 3 (WithDict) records the shared pre-trained dictionary
//     (Dict.ID / Dict.Len) whose bases occupy identifiers
//     [0, dictBases) of every shard. A reader that was not handed the
//     same Dict rejects the stream with ErrDictRequired or
//     ErrDictMismatch instead of misdecoding.
//   - Version 4 (WithIndex, single shard) cuts its one timeline at
//     checkpoints: groupFlagCheckpoint marks a group before which the
//     encoder reset its dictionary to the frozen prefix. Every decoder
//     replays the reset in-band; because a checkpoint group depends on
//     nothing before it, Seek may start there cold and a parallel
//     decoder may hand it to another lane (parallel.go). The footer
//     after the trailer lists the groups and checkpoints; readers that
//     stop at the trailer never see it.
//
// Record payloads are identical across versions. One emitter
// (Writer.writeGroup) and one parser (parseGroupHeader, classifyGroup)
// implement the group framing for every engine on either side.
const (
	streamMagic = "ZLGD"
	streamV1    = 1 // serial container
	streamV2    = 2 // sharded container (WithWorkers > 1)
	streamV3    = 3 // dictionary-framed sharded container (WithDict)
	streamV4    = 4 // indexed/seekable container (WithIndex)
)

// flagDict marks a version ≥ 3 stream that records its pre-trained
// dictionary in the extended header; flagIndex marks a version-4
// stream carrying the trailing seek index.
const (
	flagDict  = 1 << 0
	flagIndex = 1 << 1
)

// groupFlagCheckpoint, in a version-4 group header's flags byte, marks
// a group encoded from a dictionary holding only the frozen prefix:
// the encoder reset its dynamic entries immediately before it.
const groupFlagCheckpoint = 1 << 0

// ErrCorrupt reports an undecodable stream.
var ErrCorrupt = errors.New("zipline: corrupt stream")

// ErrDictRequired reports a dictionary-framed stream offered to a
// Reader that holds no dictionary (pass the fleet's Dict via
// WithDict).
var ErrDictRequired = errors.New("zipline: stream requires a pre-trained dictionary")

// ErrDictMismatch reports a dictionary-framed stream whose recorded
// dictionary identity does not match the Reader's WithDict.
var ErrDictMismatch = errors.New("zipline: dictionary does not match stream")

// ErrNoIndex reports a Seek or ReadAt against a stream that carries no
// trailing index (it was not written with WithIndex).
var ErrNoIndex = errors.New("zipline: stream has no seek index")

// errReaderClosed poisons reads after Close.
var errReaderClosed = errors.New("zipline: reader closed")

// truncErr maps a mid-structure read failure to io.ErrUnexpectedEOF:
// a container that ends cleanly between frames surfaces io.EOF from
// the framing layer, but one cut inside a header, body, trailer or
// footer must never read as a clean end of stream.
func truncErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

const (
	defaultBlockBytes = 64 << 10
	maxBlockBytes     = 1 << 24

	// maxPooledBlockLen caps the block-body scratch a Reader keeps
	// across blocks and Resets; larger (corrupt-header) bodies get a
	// throwaway buffer instead.
	maxPooledBlockLen = 1 << 20
)

// tailBlockFlag marks the bitLen word of a raw tail block.
const tailBlockFlag = 1 << 31

// blockEncoder is the reusable encode unit shared by the serial path
// and every parallel worker: it turns fixed-size chunks into
// bit-packed records against one basis dictionary (optionally seeded
// with a shared frozen Dict). The block and stats destinations are
// fields so a worker can repoint them at the current job while the
// dictionary persists across jobs.
type blockEncoder struct {
	dict  *gd.Dictionary
	block *bitvec.Writer
	stats *StreamStats
	basis []byte // split scratch reused across chunks

	// Hoisted from the codec at construction so the per-chunk record
	// loop reads three ints and a pointer instead of chasing the config
	// through method calls every chunk.
	inner  *gd.Codec
	m      int // deviation width, bits
	k      int // basis width, bits
	idBits int
}

func newBlockEncoder(codec *Codec, d *Dict) *blockEncoder {
	dict := newStreamDictionary(codec, d)
	return &blockEncoder{
		dict:   dict,
		inner:  codec.inner,
		m:      codec.DeviationBits(),
		k:      codec.BasisBits(),
		idBits: codec.cfg.IDBits,
	}
}

// newStreamDictionary builds the per-stream basis dictionary, seeded
// with the shared frozen prefix when a Dict is in play.
func newStreamDictionary(codec *Codec, d *Dict) *gd.Dictionary {
	if d != nil {
		return gd.NewDictionaryFrozen(codec.cfg.IDBits, d.frozen)
	}
	return gd.NewDictionary(codec.cfg.IDBits)
}

// encodeChunk appends one chunk's record to the current block.
//
//zipline:noalloc
func (e *blockEncoder) encodeChunk(chunk []byte) error {
	basis, dev, extra, err := e.inner.SplitChunkBytes(chunk, e.basis)
	if err != nil {
		return err
	}
	e.basis = basis
	e.stats.Chunks++
	// The record header tag | deviation | extra, tag clear; a hit record
	// is it and the id in one store (≤ 2 + 31 + 24 bits).
	head := uint64(dev)<<1 | uint64(extra)
	if id, hit := e.dict.LookupInsert(basis, e.k); hit {
		e.block.WriteUint((1<<(e.m+1)|head)<<e.idBits|uint64(id), 2+e.m+e.idBits)
		e.stats.Hits++
	} else {
		e.block.WriteUint(head, 2+e.m)
		e.block.WriteBits(basis, e.k)
		e.stats.Misses++
	}
	return nil
}

// blockDecoder is the matching decode unit: it replays one shard's
// record blocks against one basis dictionary, mirroring the encoder's
// insertions and recency refreshes.
type blockDecoder struct {
	codec *Codec
	dict  *gd.Dictionary
	stats *StreamStats
	br    bitvec.Reader // reused per block; live only inside decodeRecords
	basis []byte        // a missed basis, read off the wire

	// Random-access bounds, set only by the serial Reader's seekTo and
	// ReadAt; zero (no skip, unbounded) on every other path. The next
	// skip records are replayed into the dictionary without being
	// merged; then, when bounded, decodeRecords stops parsing once left
	// more records have been merged.
	skip    int64
	bounded bool
	left    int64
}

func newBlockDecoder(codec *Codec, stats *StreamStats, d *Dict) *blockDecoder {
	dict := newStreamDictionary(codec, d)
	return &blockDecoder{codec: codec, dict: dict, stats: stats, basis: make([]byte, (codec.BasisBits()+7)/8)}
}

// reset starts d on a new dictionary timeline: the dictionary back to
// its frozen prefix, nothing to skip, unbounded.
func (d *blockDecoder) reset() {
	d.dict.Reset()
	d.skip, d.bounded = 0, false
}

// decodeRecords replays one block of records, appending the decoded
// bytes to out. Skipped records (d.skip) update the dictionary, Stats
// and nothing else; a bound (d.bounded) that runs out stops the parse
// mid-block.
//
//zipline:noalloc
func (d *blockDecoder) decodeRecords(body []byte, bitLen int, out []byte) ([]byte, error) {
	br := &d.br
	br.ResetBits(body, bitLen)
	// body is borrowed scratch; drop the reference on every exit so the
	// decoder never pins a caller's buffer between blocks.
	defer br.ResetBits(nil, 0)
	m := d.codec.DeviationBits()
	k := d.codec.BasisBits()
	idBits := d.codec.cfg.IDBits
	// The counts live in locals through the record loop and are stored
	// back when the block ends or the bound stops it; after an error the
	// decoder is reset before it decodes again.
	skip, left := d.skip, d.left
	if !d.bounded {
		left = -1 // counts down, never to zero
	}
	for br.Remaining() > 0 {
		if left == 0 && skip == 0 {
			break
		}
		// tag | deviation | extra, as encodeChunk stores it.
		head, err := br.ReadUint(2 + m)
		if err != nil {
			//ziplint:allow noalloc cold error exit; the stream is corrupt
			return out, fmt.Errorf("%w: truncated record", ErrCorrupt)
		}
		var basis []byte
		if head>>(m+1) != 0 {
			id, err := br.ReadUint(idBits)
			if err != nil {
				//ziplint:allow noalloc cold error exit; the stream is corrupt
				return out, fmt.Errorf("%w: truncated identifier", ErrCorrupt)
			}
			// Mirrors the encoder's lookup including its recency refresh.
			// b views the dictionary's storage, valid until its next
			// mutating call: it is merged before the next record is read.
			b, ok := d.dict.TouchID(uint32(id))
			if !ok {
				//ziplint:allow noalloc cold error exit; the stream is corrupt
				return out, fmt.Errorf("%w: unknown identifier %d", ErrCorrupt, id)
			}
			basis = b
			d.stats.Hits++
		} else {
			if err := br.ReadBits(d.basis, k); err != nil {
				//ziplint:allow noalloc cold error exit; the stream is corrupt
				return out, fmt.Errorf("%w: truncated basis", ErrCorrupt)
			}
			d.dict.LookupInsert(d.basis, k)
			basis = d.basis
			d.stats.Misses++
		}
		d.stats.Chunks++
		if skip > 0 {
			skip--
			continue
		}
		out, err = d.codec.inner.MergeChunkBytes(basis, uint32(head>>1)&(1<<m-1), uint8(head&1), out)
		if err != nil {
			//ziplint:allow noalloc cold error exit; the stream is corrupt
			return out, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		left--
	}
	d.skip, d.left = skip, left
	return out, nil
}

// parseTailBlock validates a raw tail block body and returns the tail
// bytes (aliasing body).
func parseTailBlock(body []byte) ([]byte, error) {
	if len(body) < 3 || body[0] != 0xFF {
		return nil, fmt.Errorf("%w: malformed tail block", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(body[1:3]))
	if len(body) != 3+n {
		return nil, fmt.Errorf("%w: tail length mismatch", ErrCorrupt)
	}
	return body[3:], nil
}

// Writer compresses a byte stream with GD. One type serves every
// operating mode, selected by Options at construction:
//
//   - WithWorkers(1) (the default) encodes serially on the caller's
//     goroutine, buffering at most one chunk of input plus one output
//     block.
//   - WithWorkers(n > 1) fans input segments out to n workers with one
//     basis-dictionary shard each, emitting the version-2 container.
//   - WithDict shares a pre-trained basis dictionary across all shards
//     and records it in the (version-3) container.
//
// Close flushes the tail and the trailer; the stream is unreadable
// without it. A finished Writer can be handed a new stream with Reset,
// re-serving from a pool without re-allocating its dictionary, block
// buffer or (with a warm Dict) anything at all. Streaming methods must
// not be called concurrently; EncodeAll may be called from any number
// of goroutines at any time.
type Writer struct {
	w     io.Writer
	set   settings
	codec *Codec

	// Serial engine (workers == 1).
	enc       *blockEncoder
	pending   []byte // partial input chunk; at Close, the raw tail of either engine
	chunkSize int    // hoisted codec.ChunkSize()

	// Sharded engine (workers > 1), started lazily on first dispatch.
	par *parEngine

	grouped bool   // 16-byte group framing (v2+)
	seq     uint32 // next group sequence number

	// Trailing-index accumulation (WithIndex, serial only).
	idx     *writerIndex
	written int64 // compressed bytes emitted (writeOut)
	uncomp  int64 // uncompressed bytes consumed into groups

	wroteHeader bool
	closed      bool
	closeErr    error

	scratch [24]byte // stream/group header assembly, keeps flushes alloc-free

	ePool sync.Pool // pooled one-shot encoders for EncodeAll

	// Stats accumulate over the current stream (valid after Close for
	// workers > 1; Reset clears them). EncodeAll does not touch Stats.
	Stats StreamStats
}

// StreamStats counts records and bytes through a Writer or Reader.
type StreamStats struct {
	Chunks    uint64
	Hits      uint64
	Misses    uint64
	TailBytes uint64
}

// add accumulates o into s.
func (s *StreamStats) add(o StreamStats) {
	s.Chunks += o.Chunks
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.TailBytes += o.TailBytes
}

// NewWriter builds a compressing writer. Options select the operating
// point (WithConfig), concurrency (WithWorkers) and shared dictionary
// (WithDict); a bare Config is accepted as an option for
// compatibility with the pre-options signature. w may be nil for a
// Writer used only through EncodeAll.
func NewWriter(w io.Writer, opts ...Option) (*Writer, error) {
	set, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	codec, err := NewCodec(set.cfg)
	if err != nil {
		return nil, err
	}
	set.cfg = codec.cfg
	if set.workers > 1 {
		if set.index {
			return nil, fmt.Errorf("zipline: WithIndex requires a serial writer — the index records one dictionary timeline, and decode-side parallelism comes from the index itself")
		}
		zw := &Writer{w: w, set: set, codec: codec, grouped: true}
		zw.par = newParEngine(zw)
		return zw, nil
	}
	return newSerialWriter(w, set, codec), nil
}

// newSerialWriter assembles the single-shard engine around an
// existing codec (shared by NewWriter and the EncodeAll pool).
func newSerialWriter(w io.Writer, set settings, codec *Codec) *Writer {
	zw := &Writer{w: w, set: set, codec: codec, grouped: set.dict != nil || set.index}
	zw.enc = newBlockEncoder(codec, set.dict)
	zw.enc.block = bitvec.NewWriter(defaultBlockBytes + 256)
	zw.enc.stats = &zw.Stats
	zw.chunkSize = codec.ChunkSize()
	if set.index {
		every := int64(set.indexEvery)
		if every == 0 {
			every = defaultCheckpointBytes
		}
		// Checkpoints land on chunk boundaries: round the interval up
		// to a whole chunk.
		if rem := every % int64(zw.chunkSize); rem != 0 {
			every += int64(zw.chunkSize) - rem
		}
		zw.idx = &writerIndex{every: every}
		zw.idx.reset()
	}
	return zw
}

// version returns the container version this writer emits.
func (zw *Writer) version() uint8 {
	switch {
	case zw.set.index:
		return streamV4
	case zw.set.dict != nil:
		return streamV3
	case zw.set.workers > 1:
		return streamV2
	default:
		return streamV1
	}
}

// Reset discards the current stream state and directs the writer at a
// new destination, keeping every allocation: the basis dictionary
// (cleared back to its frozen prefix), the block buffer, and — for
// workers > 1 — the segment and block pools. A pooled Writer re-serves
// short streams with zero steady-state allocations when its
// dictionary is warm.
//
//zipline:noalloc
func (zw *Writer) Reset(w io.Writer) {
	if zw.par != nil {
		zw.par.reset()
	}
	zw.w = w
	zw.pending = zw.pending[:0]
	zw.seq = 0
	zw.written, zw.uncomp = 0, 0
	zw.wroteHeader, zw.closed = false, false
	zw.closeErr = nil
	zw.Stats = StreamStats{}
	if zw.enc != nil {
		zw.enc.block.Reset()
		zw.enc.dict.Reset()
	}
	if zw.idx != nil {
		zw.idx.reset()
	}
}

// Write implements io.Writer.
func (zw *Writer) Write(p []byte) (int, error) {
	if zw.closed {
		return 0, fmt.Errorf("zipline: write after Close")
	}
	if zw.w == nil {
		return 0, fmt.Errorf("zipline: Writer has no destination (NewWriter(nil, ...) serves EncodeAll only)")
	}
	if zw.par != nil {
		return zw.parWrite(p)
	}
	if err := zw.writeHeader(); err != nil {
		return 0, err
	}
	n := len(p)
	cs := zw.chunkSize
	// Drain the pending partial chunk first.
	if len(zw.pending) > 0 {
		need := cs - len(zw.pending)
		if need > len(p) {
			zw.pending = append(zw.pending, p...)
			return n, nil
		}
		zw.pending = append(zw.pending, p[:need]...)
		p = p[need:]
		if err := zw.encodeChunk(zw.pending); err != nil {
			return 0, err
		}
		zw.pending = zw.pending[:0]
	}
	for len(p) >= cs {
		if err := zw.encodeChunk(p[:cs]); err != nil {
			return 0, err
		}
		p = p[cs:]
	}
	zw.pending = append(zw.pending, p...)
	return n, nil
}

// Flush writes every buffered complete-chunk record through to the
// destination as one container block, so a streaming peer can decode
// the data written so far without waiting for Close — the primitive
// the ziphttp gateway's http.Flusher path and the zipline-proxy
// per-segment forwarding are built on. Bytes of a trailing partial
// chunk (fewer than the codec's ChunkSize) stay pending until further
// input completes the chunk or Close emits them as the raw tail: the
// container carries records at chunk granularity, so a mid-stream
// flush cannot move them. Flushing before any input still forces the
// stream header out. Flush requires the serial engine
// (WithWorkers(1)); the sharded writer buffers per worker and returns
// an error. On an indexed (WithIndex) writer every flushed block is
// recorded in the trailing index as usual.
func (zw *Writer) Flush() error {
	if zw.closed {
		return fmt.Errorf("zipline: flush after Close")
	}
	if zw.w == nil {
		return fmt.Errorf("zipline: Writer has no destination (NewWriter(nil, ...) serves EncodeAll only)")
	}
	if zw.par != nil {
		return fmt.Errorf("zipline: Flush requires the serial writer (WithWorkers(1))")
	}
	if err := zw.writeHeader(); err != nil {
		return err
	}
	return zw.flushBlock()
}

// writeHeader emits the container header (with the v2/v3 extension
// and dict frame as configured) from the writer's scratch, so the
// steady-state pooled path allocates nothing.
func (zw *Writer) writeHeader() error {
	if zw.wroteHeader {
		return nil
	}
	zw.wroteHeader = true
	cfg := zw.codec.cfg
	b := append(zw.scratch[:0], streamMagic...)
	b = append(b, zw.version(), byte(cfg.M), byte(cfg.IDBits), byte(cfg.T))
	if zw.grouped {
		shards := 1
		if zw.par != nil {
			shards = zw.par.shards
		}
		var flags byte
		if zw.set.dict != nil {
			flags |= flagDict
		}
		if zw.set.index {
			flags |= flagIndex
		}
		b = append(b, byte(shards), flags, 0, 0)
		if zw.set.dict != nil {
			b = binary.LittleEndian.AppendUint32(b, zw.set.dict.id)
			b = binary.LittleEndian.AppendUint32(b, uint32(zw.set.dict.Len()))
		}
	}
	return zw.writeOut(b)
}

// writeOut forwards b to the destination, tracking the compressed
// offset the trailing index records.
//
//zipline:noalloc
func (zw *Writer) writeOut(b []byte) error {
	n, err := zw.w.Write(b)
	zw.written += int64(n)
	return err
}

//zipline:noalloc
func (zw *Writer) encodeChunk(chunk []byte) error {
	if zw.idx != nil {
		if zw.uncomp >= zw.idx.nextCkpt {
			// Checkpoint: close the current group and reset the basis
			// dictionary to the frozen prefix, so the group starting
			// with this chunk is decodable cold from the index.
			if err := zw.flushBlock(); err != nil {
				return err
			}
			zw.enc.dict.Reset()
			zw.idx.pending = true
			zw.idx.nextCkpt = zw.uncomp + zw.idx.every
		}
		if zw.enc.block.Len() == 0 {
			zw.idx.groupStart = zw.uncomp
		}
	}
	if err := zw.enc.encodeChunk(chunk); err != nil {
		return err
	}
	zw.uncomp += int64(len(chunk))
	if len(zw.enc.block.Bytes()) >= defaultBlockBytes {
		return zw.flushBlock()
	}
	return nil
}

// writeGroup emits one group: the 8-byte block (v1) or 16-byte group
// (v2+) header, then body. It is the only place a group header is
// assembled — record groups from the serial engine and from the sharded
// collector, the raw tail and the all-zero trailer (an empty body) all
// pass through it — and it numbers the groups, so sequence numbers
// follow emission order by construction. A raw tail (tailBlockFlag set
// in bitWord; shorter than a chunk, so its length fits the u16) is
// framed here too: its 0xFF | u16le length prefix rides in the scratch
// behind the header and the tail bytes are written from where they
// lie, so Close allocates nothing.
//
//zipline:noalloc
func (zw *Writer) writeGroup(body []byte, bitWord uint32, shard uint8, gflags byte) error {
	hdr := zw.scratch[:8]
	if zw.grouped {
		hdr = zw.scratch[:16]
	}
	clear(hdr)
	byteLen := len(body)
	if bitWord&tailBlockFlag != 0 {
		hdr = append(hdr, 0xFF, byte(len(body)), byte(len(body)>>8))
		byteLen += 3
		bitWord |= uint32(byteLen * 8)
	}
	if byteLen > 0 {
		binary.LittleEndian.PutUint32(hdr[0:], uint32(byteLen))
		binary.LittleEndian.PutUint32(hdr[4:], bitWord)
		if zw.grouped {
			binary.LittleEndian.PutUint32(hdr[8:], zw.seq)
			hdr[12], hdr[13] = shard, gflags
			zw.seq++
		}
	}
	if err := zw.writeOut(hdr); err != nil || len(body) == 0 {
		return err
	}
	return zw.writeOut(body)
}

//zipline:noalloc
func (zw *Writer) flushBlock() error {
	block := zw.enc.block
	if block.Len() == 0 {
		return nil
	}
	var gflags byte
	if zw.idx != nil {
		gflags = zw.idx.record(zw.written, zw.idx.groupStart)
	}
	if err := zw.writeGroup(block.Bytes(), uint32(block.Len()), 0, gflags); err != nil {
		return err
	}
	block.Reset()
	return nil
}

// Close flushes buffered records, the input tail and the stream
// trailer. It does not close the underlying writer. Close is
// idempotent: repeated calls return the first close error, so a
// deferred Close after an unchecked explicit one cannot report
// success on a truncated stream.
func (zw *Writer) Close() error {
	if zw.closed {
		return zw.closeErr
	}
	zw.closed = true
	if zw.w == nil {
		return nil // EncodeAll-only writer, nothing buffered
	}
	if zw.par != nil {
		zw.closeErr = zw.parDrain()
	}
	if zw.closeErr == nil {
		zw.closeErr = zw.finish()
	}
	return zw.closeErr
}

// finish ends the stream of either engine: the header if nothing has
// forced it out yet (an empty stream), the serial engine's open block,
// the raw tail group (zw.pending, the trailing bytes that did not fill
// a chunk), the trailer and, under WithIndex, the footer.
func (zw *Writer) finish() error {
	if err := zw.writeHeader(); err != nil {
		return err
	}
	if zw.enc != nil {
		if err := zw.flushBlock(); err != nil {
			return err
		}
	}
	if tail := zw.pending; len(tail) > 0 {
		zw.Stats.TailBytes = uint64(len(tail))
		var gflags byte
		if zw.idx != nil {
			// The raw tail needs no dictionary state, so it is always
			// its own checkpoint: Seek can jump straight into it.
			zw.idx.pending = true
			gflags = zw.idx.record(zw.written, zw.uncomp)
		}
		if err := zw.writeGroup(tail, tailBlockFlag, 0, gflags); err != nil {
			return err
		}
		zw.uncomp += int64(len(tail))
	}
	trailerOff := zw.written
	if err := zw.writeGroup(nil, 0, 0, 0); err != nil {
		return err
	}
	if zw.idx == nil {
		return nil
	}
	ix := streamIndex{
		uncompTotal: uint64(zw.uncomp),
		trailerOff:  uint64(trailerOff),
		groups:      zw.idx.groups,
		checkpoints: zw.idx.ckpts,
	}
	if zw.set.dict != nil {
		ix.watermark = uint32(zw.set.dict.Len())
	}
	return zw.writeOut(ix.appendFooter(nil))
}

// Reader decompresses a stream produced by any Writer configuration —
// it understands all four container versions, following the stream's
// recorded shard count and dictionary identity. It implements
// io.Reader. With WithWorkers(n > 1), sharded streams are decoded by
// one lane per shard and single-shard indexed streams by n lanes that
// take turns at the checkpoints, from any io.Reader; Close then
// releases the lanes without draining the stream. Like Writer, a
// Reader can be pooled: Reset points it at a new stream and, on the
// serial decode path, reuses its shard decoders (dictionaries
// included) whenever the next header matches the last; the parallel
// engine is rebuilt per stream. Streaming methods must not be called
// concurrently; DecodeAll may be called from any number of goroutines.
type Reader struct {
	r   io.Reader
	set settings

	codec      *Codec
	gr         groupReader // framing walk (serial decode path)
	streamDict *Dict       // set.dict, when the stream records it

	decs     []*blockDecoder // one per shard (serial decode path)
	decCodec *Codec          // codec decs were built against (Reset reuse)
	decDict  *Dict           // dict decs were built against (Reset reuse)
	decoded  int64           // bytes the groups walked so far decoded to (serial decode path)

	par *parReader // decode lanes (workers > 1 on a sharded or indexed stream)

	// Random-access state, live when the source is an io.ReadSeeker.
	seeker io.ReadSeeker
	origin int64 // underlying offset of the container's first byte
	pos    int64 // uncompressed read position (Seek/ReadAt)
	idx    *streamIndex
	jumped bool // seekTo entered the next group from the index; readBlock checks it
	// partial: a ReadAt's bound ran out, so the decoder may have stopped
	// mid-group; Read replays to pos before it decodes on.
	partial bool

	out     []byte // decoded bytes not yet read
	outBuf  []byte // recycled backing array for out (streaming Read path)
	blkBuf  []byte // recycled block-body scratch (serial decode path)
	done    bool
	started bool
	err     error // sticky: decode failure, io.EOF, or errReaderClosed

	dPool sync.Pool // pooled one-shot decoders for DecodeAll
	iPool sync.Pool // pooled fan-out decode states for indexed DecodeAll

	// Stats accumulate over the reader's lifetime (for workers > 1,
	// valid once Read has returned io.EOF). DecodeAll does not touch
	// Stats.
	Stats StreamStats
}

// NewReader opens a compressed stream, reading and validating its
// header lazily on first Read. Options: WithWorkers enables
// concurrent shard decoding, WithDict supplies the shared dictionary
// a version-3 stream requires. r may be nil for a Reader used only
// through DecodeAll.
func NewReader(r io.Reader, opts ...Option) (*Reader, error) {
	set, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	return &Reader{r: r, set: set}, nil
}

// Reset discards the current stream state and directs the reader at a
// new stream. On the serial decode path, shard decoders (and their
// dictionaries) are kept and reused when the next stream's header
// matches the last one, so a pooled Reader re-serves
// same-configuration streams without rebuilding its dictionaries.
//
// After Close or Reset of a partially consumed workers > 1 stream,
// the released pump goroutine may still be blocked in a read on the
// old source (Go cannot interrupt a blocking Read); its read position
// is then undefined, so do not hand that same source's remaining
// bytes to another reader. Fully drained streams, and any in-memory
// or file source, are unaffected.
//
//zipline:noalloc
func (zr *Reader) Reset(r io.Reader) {
	if zr.par != nil {
		zr.par.release()
		zr.par = nil
	}
	zr.r = r
	zr.gr = groupReader{}
	zr.streamDict = nil
	zr.decoded = 0
	zr.seeker, zr.origin, zr.pos = nil, 0, 0
	zr.idx = nil
	zr.out = nil
	zr.done, zr.started, zr.jumped, zr.partial = false, false, false, false
	zr.err = nil
	zr.Stats = StreamStats{}
}

func (zr *Reader) start() error {
	if zr.started {
		return nil
	}
	zr.started = true
	if zr.r == nil {
		return fmt.Errorf("zipline: Reader has no source (NewReader(nil, ...) serves DecodeAll only)")
	}
	if sk, ok := zr.r.(io.ReadSeeker); ok {
		// Remember where the container starts in a seekable source, so
		// Seek can address it absolutely.
		if off, err := sk.Seek(0, io.SeekCurrent); err == nil {
			zr.seeker, zr.origin = sk, off
		}
	}
	info, err := parseStreamHeader(zr.r, zr.codec, &zr.gr.hdr)
	if err != nil {
		return err
	}
	dict, err := validateStreamDict(info, zr.set.dict)
	if err != nil {
		return err
	}
	zr.codec = info.codec
	zr.streamDict = dict
	zr.gr = groupReader{r: zr.r, version: info.version, shards: info.shards, hasIndex: info.hasIndex, off: int64(info.size)}
	if zr.set.workers > 1 && (info.shards > 1 || info.hasIndex) {
		// Concurrent decode: a sharded stream gets one lane per shard, a
		// single-shard indexed one a lane per worker. The lanes own their
		// decoders; the serial slice stays untouched for a later serial
		// stream.
		zr.par = newParReader(zr)
		return nil
	}
	// Serial decode. Shard decoders are created lazily on first use;
	// together with insert-proportional Dictionary sizing this keeps
	// decoder memory tied to real stream content, not to the
	// attacker-controlled shards and idBits header bytes. A pooled
	// Reset keeps the previous stream's decoders when the header
	// matches.
	if zr.decCodec != nil && zr.decCodec.cfg == info.codec.cfg && len(zr.decs) == info.shards && zr.decDict == dict {
		for _, dec := range zr.decs {
			if dec != nil {
				dec.reset()
			}
		}
	} else {
		zr.decCodec = info.codec
		zr.decs = make([]*blockDecoder, info.shards)
		zr.decDict = dict
	}
	return nil
}

// headerInfo is a parsed container header.
type headerInfo struct {
	version  uint8
	codec    *Codec
	shards   int
	hasDict  bool
	hasIndex bool
	dictID   uint32
	dictLen  uint32
	size     int // header bytes consumed: where the first group starts
}

// validateStreamDict cross-checks a dictionary-framed header against
// the dictionary the Reader holds, returning the dictionary decoding
// should use (nil for undictionaried streams). Every decode path —
// streaming, DecodeAll, indexed fan-out — applies this one rule.
func validateStreamDict(info headerInfo, d *Dict) (*Dict, error) {
	if !info.hasDict {
		return nil, nil
	}
	if d == nil {
		return nil, fmt.Errorf("%w: stream was encoded against dictionary %#08x (%d bases)",
			ErrDictRequired, info.dictID, info.dictLen)
	}
	if d.id != info.dictID || uint32(d.Len()) != info.dictLen || d.cfg != info.codec.cfg {
		return nil, fmt.Errorf("%w: stream wants %#08x (%d bases), holding %#08x (%d bases)",
			ErrDictMismatch, info.dictID, info.dictLen, d.id, d.Len())
	}
	return d, nil
}

// parseStreamHeader reads and validates the container header — magic,
// version, codec configuration, (v2/v3) shard count and (v3) dict
// identity. It is the single authority every decode path opens
// streams with, so serial and parallel decoders accept exactly the
// same headers. prev, when non-nil and matching the header's
// configuration, is reused instead of building a fresh codec — the
// pooled-reader steady state skips the transform-table setup. scratch
// is caller-owned header scratch (same hoisting as groupReader.hdr).
func parseStreamHeader(r io.Reader, prev *Codec, scratch *[16]byte) (headerInfo, error) {
	var info headerInfo
	hdr := scratch[:8]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return info, fmt.Errorf("%w: header: %w", ErrCorrupt, truncErr(err))
	}
	if string(hdr[:4]) != streamMagic {
		return info, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	info.version = hdr[4]
	if info.version < streamV1 || info.version > streamV4 {
		return info, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, info.version)
	}
	cfg := Config{M: int(hdr[5]), IDBits: int(hdr[6]), T: int(hdr[7])}
	if prev != nil && prev.cfg == cfg {
		info.codec = prev
	} else {
		codec, cerr := NewCodec(cfg)
		if cerr != nil {
			return info, fmt.Errorf("%w: %v", ErrCorrupt, cerr)
		}
		info.codec = codec
	}
	codec := info.codec
	info.shards, info.size = 1, 8
	if info.version >= streamV2 {
		info.size += 4
		ext := scratch[8:12]
		if _, err := io.ReadFull(r, ext); err != nil {
			return info, fmt.Errorf("%w: extended header: %w", ErrCorrupt, truncErr(err))
		}
		info.shards = int(ext[0])
		if info.shards == 0 {
			return info, fmt.Errorf("%w: zero shards", ErrCorrupt)
		}
		if info.version >= streamV3 {
			flags := ext[1]
			valid := byte(flagDict)
			if info.version >= streamV4 {
				valid |= flagIndex
			}
			if flags&^valid != 0 {
				return info, fmt.Errorf("%w: unknown header flags %#02x", ErrCorrupt, flags)
			}
			info.hasIndex = flags&flagIndex != 0
			if flags&flagDict != 0 {
				// The fixed header's bytes are fully consumed above, so
				// its scratch half is free again for the dict frame.
				df := scratch[:8]
				if _, err := io.ReadFull(r, df); err != nil {
					return info, fmt.Errorf("%w: dictionary frame: %w", ErrCorrupt, truncErr(err))
				}
				info.hasDict = true
				info.size += 8
				info.dictID = binary.LittleEndian.Uint32(df[0:])
				info.dictLen = binary.LittleEndian.Uint32(df[4:])
				if info.dictLen == 0 || info.dictLen >= 1<<codec.cfg.IDBits {
					return info, fmt.Errorf("%w: dictionary of %d bases does not fit %d-bit identifiers",
						ErrCorrupt, info.dictLen, codec.cfg.IDBits)
				}
			}
		}
	}
	return info, nil
}

// Read implements io.Reader.
func (zr *Reader) Read(p []byte) (int, error) {
	if zr.err != nil {
		return 0, zr.err
	}
	if err := zr.start(); err != nil {
		zr.err = err
		return 0, err
	}
	if zr.par != nil {
		n, err := zr.par.read(zr, p)
		zr.pos += int64(n)
		return n, err
	}
	for len(zr.out) == 0 {
		if zr.done {
			zr.err = io.EOF
			return 0, io.EOF
		}
		var err error
		if zr.partial {
			// A ReadAt stopped decoding at the end of its range: replay
			// the dictionary from the checkpoint to where reading left off.
			err = zr.seekTo(uint64(zr.pos), -1)
		} else {
			err = zr.nextBlock()
		}
		if err != nil {
			zr.err = err
			return 0, err
		}
	}
	n := copy(p, zr.out)
	zr.out = zr.out[n:]
	zr.pos += int64(n)
	return n, nil
}

// nextBlock decodes the next group into the recycled output buffer,
// so the streaming steady state allocates nothing; out must be drained.
// outBuf keeps the whole array, so a prefix resliced off out never
// shrinks what the next group decodes into.
func (zr *Reader) nextBlock() error {
	zr.out = zr.outBuf[:0]
	err := zr.readBlock()
	zr.outBuf = zr.out
	return err
}

// Seek implements io.Seeker over the uncompressed stream. It requires
// an indexed container (WithIndex) on an io.ReadSeeker source and the
// serial decode path (workers == 1): the reader jumps to the last
// dictionary checkpoint at or before the target, replays the dictionary
// from the checkpoint and rebuilds only the bytes returned — so a seek
// costs at most one checkpoint interval of record parsing, and reading
// on decodes whole groups as streaming does. Seeking clears a prior
// io.EOF; after a seek, Stats no longer describe a single linear pass.
// A non-indexed stream returns ErrNoIndex.
func (zr *Reader) Seek(offset int64, whence int) (int64, error) {
	return zr.seek(offset, whence, -1)
}

// seek is Seek for a window of the given length (a ReadAt) or, for
// window < 0, for reading on without bound.
func (zr *Reader) seek(offset int64, whence, window int) (int64, error) {
	if zr.err != nil && zr.err != io.EOF {
		return 0, zr.err
	}
	zr.err = nil
	if err := zr.start(); err != nil {
		zr.err = err
		return 0, err
	}
	if zr.par != nil {
		return 0, fmt.Errorf("zipline: Seek requires the serial decode path (WithWorkers(1))")
	}
	if zr.seeker == nil {
		return 0, fmt.Errorf("zipline: Seek requires an io.ReadSeeker source")
	}
	if !zr.gr.hasIndex {
		return 0, ErrNoIndex
	}
	if zr.gr.shards != 1 {
		// The index records one dictionary timeline; a forged sharded
		// stream has no state to jump into.
		return 0, fmt.Errorf("%w: index on a %d-shard stream", ErrCorrupt, zr.gr.shards)
	}
	if zr.idx == nil {
		ix, err := readIndexFooter(zr.seeker, zr.origin)
		if err != nil {
			zr.err = err
			return 0, err
		}
		zr.idx = ix
	}
	var target int64
	switch whence {
	case io.SeekStart:
		target = offset
	case io.SeekCurrent:
		target = zr.pos + offset
	case io.SeekEnd:
		target = int64(zr.idx.uncompTotal) + offset
	default:
		return 0, fmt.Errorf("zipline: invalid whence %d", whence)
	}
	if target < 0 || target > int64(zr.idx.uncompTotal) {
		return 0, fmt.Errorf("zipline: Seek to %d outside a stream of %d bytes", target, zr.idx.uncompTotal)
	}
	if err := zr.seekTo(uint64(target), window); err != nil {
		zr.err = err
		return 0, err
	}
	zr.pos = target
	return target, nil
}

// seekTo repositions the decode state at uncompressed offset target:
// jump the source to the governing checkpoint's group, reset the basis
// dictionary to the frozen prefix, and replay forward to the target.
// Whole records before the target go through the dictionary without
// being merged. That holds on the Hamming path (T == 1) only, whose
// merge can fail on nothing the record parser has not already bounded;
// the generic path merges and discards, so its errors surface where
// they always have. A window >= 0 bounds the records merged after the
// skip to the chunks that cover window bytes from the target; window
// < 0 leaves the decode unbounded.
func (zr *Reader) seekTo(target uint64, window int) error {
	ckGroup, g, ok := zr.idx.checkpointAtOrBefore(target)
	off, seq, pos := int64(zr.idx.trailerOff), uint32(len(zr.idx.groups)), zr.idx.uncompTotal
	zr.jumped = ok && target < zr.idx.uncompTotal
	if zr.jumped {
		off, seq, pos = int64(g.compOff), ckGroup, g.uncompOff
	}
	if _, err := zr.seeker.Seek(zr.origin+off, io.SeekStart); err != nil {
		return err
	}
	// The framing walk resumes at the jumped-to group, so the trailer's
	// footer check still compares against what this walk passes.
	zr.gr.seq, zr.gr.off, zr.decoded = seq, off, int64(pos)
	zr.done, zr.partial = false, false
	zr.out = zr.outBuf[:0]
	dec := zr.decoder(0)
	dec.reset()
	cs := uint64(zr.codec.ChunkSize())
	if zr.codec.cfg.T == 1 {
		dec.skip = int64((target - pos) / cs)
	}
	if window >= 0 {
		rem := target - pos - uint64(dec.skip)*cs
		dec.bounded, dec.left = true, int64((rem+uint64(window)+cs-1)/cs)
	}
	if zr.jumped {
		// Decode the jumped-to group inside the Seek, so that a group the
		// index wrongly lists as a checkpoint fails here (readBlock holds
		// it to its in-band flag) and not at some later Read.
		if err := zr.nextBlock(); err != nil {
			return err
		}
	}
	// zr.decoded counts every byte of the groups walked, skipped or
	// merged, so out starts at stream offset zr.decoded − len(out).
	for {
		pos = uint64(zr.decoded) - uint64(len(zr.out))
		if pos > target {
			// Skipped records are whole chunks: only raw tail bytes inside
			// the skipped span, which no writer emits, overshoot.
			return fmt.Errorf("%w: raw tail inside the span replayed to %d", ErrCorrupt, target)
		}
		if pos == target {
			break
		}
		if len(zr.out) > 0 {
			zr.out = zr.out[min(uint64(len(zr.out)), target-pos):]
			continue
		}
		if zr.done {
			return fmt.Errorf("%w: stream ends at %d before seek target %d", ErrCorrupt, pos, target)
		}
		if err := zr.nextBlock(); err != nil {
			return err
		}
	}
	// Raw tails inside the skipped span can also leave a count behind;
	// it must not reach the records after the target.
	dec.skip = 0
	return nil
}

// ReadAt serves HTTP-range-style random access over the uncompressed
// stream of an indexed container. Unlike the io.ReaderAt contract it
// shares the Reader's streaming state: calls must not run concurrently
// with Read, Seek or each other, and the read position moves to the
// end of the range. Fewer than len(p) bytes are returned only at the
// end of the stream, with io.EOF.
//
// Like Seek, ReadAt replays the dictionary from the checkpoint and
// rebuilds only the bytes returned: record parsing stops at the chunk
// that ends the range, and a Read after it first replays from the
// checkpoint again. So a record the decoder rejects inside the range
// fails the ReadAt with ErrCorrupt, while one after the range, even in
// the same group, fails the Read that reaches it, and that error is
// sticky. Sequential Read and DecodeAll decode every record as before.
func (zr *Reader) ReadAt(p []byte, off int64) (int, error) {
	if _, err := zr.seek(off, io.SeekStart, len(p)); err != nil {
		return 0, err
	}
	// The bound is this call's: a Read after it streams on unbounded.
	defer func() { zr.decs[0].bounded = false }()
	n := 0
	for n < len(p) {
		m, err := zr.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Close releases the reader's resources — for workers > 1 its decode
// goroutines, without consuming the rest of the stream — and poisons
// further reads. It never fails; the error return satisfies
// io.ReadCloser. See Reset for the state of a partially consumed
// source after an early Close.
func (zr *Reader) Close() error {
	if zr.par != nil {
		zr.par.release()
	}
	if zr.err == nil {
		zr.err = errReaderClosed
	}
	return nil
}

func (zr *Reader) readBlock() error {
	h, err := zr.gr.header()
	if err != nil {
		return err
	}
	if h.byteLen == 0 {
		zr.done = true
		return zr.gr.trailer(zr.decoded)
	}
	if zr.jumped {
		zr.jumped = false
		if err := checkIndexedEntry(h, zr.gr.seq-1); err != nil {
			return err
		}
	}
	// Block bodies are transient — every downstream consumer copies
	// what it keeps (parseTailBlock's slice is appended to out, a missed
	// basis is read into decoder scratch) — so one recycled buffer
	// serves every block. Oversized lengths (only a corrupt or hostile
	// header produces them; real groups are bounded by the segment
	// size) use a throwaway allocation instead, so a pooled Reader
	// never pins a huge buffer.
	var body []byte
	if h.byteLen <= maxPooledBlockLen {
		if cap(zr.blkBuf) < int(h.byteLen) {
			zr.blkBuf = make([]byte, h.byteLen)
		}
		body = zr.blkBuf[:h.byteLen]
	} else {
		body = make([]byte, h.byteLen)
	}
	tail, isTail, err := zr.gr.body(h, body)
	if err != nil {
		return err
	}
	before := len(zr.out)
	if isTail {
		zr.out = append(zr.out, tail...)
		zr.Stats.TailBytes += uint64(len(tail))
	} else {
		dec := zr.decoder(h.shard)
		skip := dec.skip
		zr.out, err = dec.decodeGroup(h, body, zr.out)
		zr.decoded += (skip - dec.skip) * int64(zr.codec.ChunkSize())
		zr.partial = dec.bounded && dec.left == 0
	}
	zr.decoded += int64(len(zr.out) - before)
	return err
}

// decoder returns the serial path's decoder for shard, built on first
// use.
func (zr *Reader) decoder(shard uint8) *blockDecoder {
	if zr.decs[shard] == nil {
		zr.decs[shard] = newBlockDecoder(zr.codec, &zr.Stats, zr.streamDict)
	}
	return zr.decs[shard]
}

// decodeAllInto drains the whole stream, appending decoded bytes to
// dst — the one-shot engine behind DecodeAll. On error dst is
// returned unextended.
func (zr *Reader) decodeAllInto(dst []byte) ([]byte, error) {
	if err := zr.start(); err != nil {
		return dst, err
	}
	zr.out = dst
	for !zr.done {
		if err := zr.readBlock(); err != nil {
			zr.out = nil
			return dst, err
		}
	}
	out := zr.out
	zr.out = nil
	return out, nil
}

// groupHeader is one parsed block (v1) or group (v2+) header.
type groupHeader struct {
	byteLen uint32 // body length; 0 marks the trailer
	bitWord uint32 // record bit length, or tailBlockFlag | bit length
	shard   uint8  // dictionary the records were encoded against (v2+)
	flags   byte   // groupFlagCheckpoint (v4)
}

// groupHeaderLen is the header size of the given container version.
func groupHeaderLen(version uint8) int {
	if version >= streamV2 {
		return 16
	}
	return 8
}

// parseGroupHeader validates one group header (exactly
// groupHeaderLen(version) bytes) against the expected sequence number,
// which it advances. It is the only parser of group headers: the serial
// Reader, the lane pump and the in-memory fan-out all come through
// here, so they accept the same streams with the same error text.
func parseGroupHeader(hdr []byte, version uint8, nextSeq *uint32) (groupHeader, error) {
	h := groupHeader{
		byteLen: binary.LittleEndian.Uint32(hdr[0:]),
		bitWord: binary.LittleEndian.Uint32(hdr[4:]),
	}
	if h.byteLen == 0 {
		return groupHeader{}, nil
	}
	if version >= streamV2 {
		if seq := binary.LittleEndian.Uint32(hdr[8:]); seq != *nextSeq {
			return h, fmt.Errorf("%w: group %d out of order (want %d)", ErrCorrupt, seq, *nextSeq)
		}
		*nextSeq++
		h.shard = hdr[12]
		if version >= streamV4 {
			h.flags = hdr[13]
			if h.flags&^byte(groupFlagCheckpoint) != 0 {
				return h, fmt.Errorf("%w: unknown group flags %#02x", ErrCorrupt, h.flags)
			}
		}
	}
	if h.byteLen > maxBlockBytes {
		return h, fmt.Errorf("%w: block of %d bytes", ErrCorrupt, h.byteLen)
	}
	return h, nil
}

// checkIndexedEntry holds a group entered from the index — decoded
// against a freshly reset dictionary because the footer lists it as a
// checkpoint — to its in-band flag. The footer's CRC proves only that
// the footer is intact, not that it is honest: an unflagged group was
// encoded against the running dictionary, so entering it cold would
// decode without error to bytes the serial walk never produces. A raw
// tail uses no dictionary, and group 0 is decoded from an empty one on
// every path whatever its flag says.
func checkIndexedEntry(h groupHeader, group uint32) error {
	if group == 0 || h.flags&groupFlagCheckpoint != 0 || h.bitWord&tailBlockFlag != 0 {
		return nil
	}
	return fmt.Errorf("%w: index lists group %d as a checkpoint, but its header does not flag one", ErrCorrupt, group)
}

// classifyGroup applies the shared accept rules for a group body in
// any container version: tail groups are validated and their bytes
// returned (aliasing body); record groups get their shard and bit
// length bounds checked.
func classifyGroup(h groupHeader, shards int, body []byte) (tail []byte, isTail bool, err error) {
	if h.bitWord&tailBlockFlag != 0 {
		t, err := parseTailBlock(body)
		return t, true, err
	}
	if int(h.shard) >= shards {
		return nil, false, fmt.Errorf("%w: shard %d of %d", ErrCorrupt, h.shard, shards)
	}
	if int(h.bitWord) > len(body)*8 {
		return nil, false, fmt.Errorf("%w: bit length exceeds block", ErrCorrupt)
	}
	return nil, false, nil
}

// decodeGroup replays one record group against d: a checkpoint group
// first resets the dictionary to the frozen prefix, as the encoder did
// before it. Every decode path funnels record groups through here, so
// checkpoints are replayed identically whichever path runs.
func (d *blockDecoder) decodeGroup(h groupHeader, body, out []byte) ([]byte, error) {
	if h.flags&groupFlagCheckpoint != 0 {
		d.dict.Reset()
	}
	return d.decodeRecords(body, int(h.bitWord), out)
}

// groupReader walks a container's groups in stream order from any
// io.Reader — the framing layer under the serial Reader and under the
// lane pump. It counts what it passes (groups and container bytes), so
// an indexed stream's footer can be checked against the walk itself.
type groupReader struct {
	r        io.Reader
	version  uint8
	shards   int
	hasIndex bool
	seq      uint32   // groups passed == next expected sequence number
	off      int64    // container bytes consumed, stream header included
	hdr      [16]byte // header scratch: no allocation per group
}

// header reads the next group header; byteLen == 0 is the trailer. A
// header cut short surfaces as ErrCorrupt wrapping
// io.ErrUnexpectedEOF, never as a clean end of stream.
func (g *groupReader) header() (groupHeader, error) {
	hdr := g.hdr[:groupHeaderLen(g.version)]
	n, err := io.ReadFull(g.r, hdr)
	g.off += int64(n)
	if err != nil {
		return groupHeader{}, fmt.Errorf("%w: block header: %w", ErrCorrupt, truncErr(err))
	}
	return parseGroupHeader(hdr, g.version, &g.seq)
}

// body reads h's body into buf (len(buf) == h.byteLen) and classifies
// it; a tail's bytes alias buf.
func (g *groupReader) body(h groupHeader, buf []byte) (tail []byte, isTail bool, err error) {
	n, err := io.ReadFull(g.r, buf)
	g.off += int64(n)
	if err != nil {
		return nil, false, fmt.Errorf("%w: block body: %w", ErrCorrupt, truncErr(err))
	}
	return classifyGroup(h, g.shards, buf)
}

// trailer ends the walk after the all-zero group. An indexed header
// promised a footer: consume and verify it — so a container cut after
// the trailer can never read as a clean end of stream — and hold it to
// what was actually read: the trailer's position, the number of groups
// passed, and decoded, the bytes the caller decoded them to.
func (g *groupReader) trailer(decoded int64) error {
	if !g.hasIndex {
		return nil
	}
	ix, err := consumeIndexFooter(g.r, uint64(g.off))
	if err != nil {
		return err
	}
	if len(ix.groups) != int(g.seq) || ix.uncompTotal != uint64(decoded) {
		return fmt.Errorf("%w: index records %d groups and %d bytes, stream held %d and %d",
			ErrCorrupt, len(ix.groups), ix.uncompTotal, g.seq, decoded)
	}
	return nil
}

type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
