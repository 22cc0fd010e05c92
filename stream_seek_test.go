package zipline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"zipline/internal/bitvec"
)

// indexedStream compresses data under WithIndex with the given
// checkpoint interval (0 = default) and optional dict.
func indexedStream(t testing.TB, data []byte, every int, dict *Dict) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts := []Option{WithIndex(every)}
	if dict != nil {
		opts = append(opts, WithDict(dict))
	}
	zw, err := NewWriter(&buf, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resealFooter recomputes the CRC of the index footer starting at
// footerStart after a test has edited its fields, so only a semantic
// check can catch the edit.
func resealFooter(b []byte, footerStart int) []byte {
	crcOff := len(b) - indexTailLen
	binary.LittleEndian.PutUint32(b[crcOff:], crc32.ChecksumIEEE(b[footerStart:crcOff]))
	return b
}

func TestIndexedRoundTripSerial(t *testing.T) {
	for _, size := range []int{0, 1, 31, 32, 1000, 16 << 10, 64 << 10, 64<<10 + 17} {
		data := sensorLike(t, size, int64(size))
		comp := indexedStream(t, data, 0, nil)
		// A stream-oriented reader (workers == 1) must decode the v4
		// container without ever touching the footer — including the
		// in-band checkpoint resets.
		back, err := decodeFresh(comp)
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("size=%d: serial round trip of indexed stream failed", size)
		}
	}
}

func TestIndexedRoundTripWithDict(t *testing.T) {
	corpus := sensorLike(t, 1<<14, 9)
	dict, err := TrainDict(corpus, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := sensorLike(t, 48<<10, 10)
	comp := indexedStream(t, data, 8<<10, dict)
	for _, workers := range []int{1, 4} {
		zr, err := NewReader(bytes.NewReader(comp), WithDict(dict), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		back, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("workers=%d: dict-indexed round trip failed", workers)
		}
	}
}

func TestWithIndexRejectsParallelWriter(t *testing.T) {
	if _, err := NewWriter(io.Discard, WithIndex(0), WithWorkers(4)); err == nil {
		t.Fatal("WithIndex with a parallel writer must fail")
	}
	if _, err := NewWriter(io.Discard, WithIndex(-1)); err == nil {
		t.Fatal("negative checkpoint interval must fail")
	}
}

func TestIndexedFooterLayout(t *testing.T) {
	data := sensorLike(t, 64<<10, 3)
	comp := indexedStream(t, data, 0, nil)
	ix, err := readIndexFooter(bytes.NewReader(comp), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.uncompTotal != uint64(len(data)) {
		t.Fatalf("uncompTotal = %d, want %d", ix.uncompTotal, len(data))
	}
	// 64 KiB at the default 16 KiB interval must yield 4 checkpoint
	// segments — the fan-out the acceptance criteria lean on.
	if got := len(ix.segments()); got != 4 {
		t.Fatalf("segments = %d, want 4", got)
	}
	if ix.watermark != 0 {
		t.Fatalf("watermark = %d for dictless stream", ix.watermark)
	}
	// The footer self-describes its length and sits right after the
	// 16-byte trailer group.
	fl := int(binary.LittleEndian.Uint32(comp[len(comp)-8:]))
	if ix.trailerOff+16 != uint64(len(comp)-fl) {
		t.Fatalf("trailerOff %d + trailer ≠ footer start %d", ix.trailerOff, len(comp)-fl)
	}
	// The header promised an index, so a footer-stripped container is
	// a truncated container — it must not decode cleanly.
	if _, err := decodeFresh(comp[:len(comp)-fl]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("footer-stripped stream: err = %v, want ErrCorrupt", err)
	}
}

func TestReaderSeekRoundTrip(t *testing.T) {
	data := sensorLike(t, 96<<10+13, 4)
	comp := indexedStream(t, data, 0, nil)
	zr, err := NewReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{0, 1, 31, 32, 16 << 10, 16<<10 + 1, 40_000, int64(len(data)) - 1, int64(len(data))}
	// Deliberately out of order: every seek must land exactly.
	for _, pass := range []int{2, 0, 4, 1, 8, 3, 7, 5, 6} {
		off := offsets[pass%len(offsets)]
		got, err := zr.Seek(off, io.SeekStart)
		if err != nil {
			t.Fatalf("Seek(%d): %v", off, err)
		}
		if got != off {
			t.Fatalf("Seek(%d) = %d", off, got)
		}
		want := data[off:]
		if len(want) > 100 {
			want = want[:100]
		}
		buf := make([]byte, len(want))
		n, err := io.ReadFull(zr, buf)
		if off == int64(len(data)) {
			if err != io.EOF && err != io.ErrUnexpectedEOF && n != 0 {
				t.Fatalf("Seek to end then read: n=%d err=%v", n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("read after Seek(%d): %v", off, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("bytes after Seek(%d) differ", off)
		}
	}
	// Relative and end-based whence.
	if _, err := zr.Seek(100, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	pos, err := zr.Seek(-50, io.SeekCurrent)
	if err != nil || pos != 50 {
		t.Fatalf("SeekCurrent: pos=%d err=%v", pos, err)
	}
	pos, err = zr.Seek(-1, io.SeekEnd)
	if err != nil || pos != int64(len(data))-1 {
		t.Fatalf("SeekEnd: pos=%d err=%v", pos, err)
	}
	// Out of range.
	if _, err := zr.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek must fail")
	}
	if _, err := zr.Seek(int64(len(data))+1, io.SeekStart); err == nil {
		t.Fatal("seek past end must fail")
	}
	// Seek after draining to EOF must clear it and re-serve.
	if _, err := zr.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Fatal(err)
	}
	if _, err := zr.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
	if _, err := zr.Seek(5, io.SeekStart); err != nil {
		t.Fatalf("seek after EOF: %v", err)
	}
	buf := make([]byte, 8)
	if _, err := io.ReadFull(zr, buf); err != nil || !bytes.Equal(buf, data[5:13]) {
		t.Fatalf("read after post-EOF seek: %v", err)
	}
}

func TestReaderReadAt(t *testing.T) {
	data := sensorLike(t, 64<<10, 5)
	comp := indexedStream(t, data, 0, nil)
	zr, err := NewReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	for _, rng := range [][2]int64{{0, 100}, {17_000, 4096}, {int64(len(data)) - 10, 10}} {
		buf := make([]byte, rng[1])
		n, err := zr.ReadAt(buf, rng[0])
		if err != nil {
			t.Fatalf("ReadAt(%d,%d): %v", rng[0], rng[1], err)
		}
		if int64(n) != rng[1] || !bytes.Equal(buf, data[rng[0]:rng[0]+rng[1]]) {
			t.Fatalf("ReadAt(%d,%d) returned wrong bytes", rng[0], rng[1])
		}
	}
	// A range running past the end returns the short count with io.EOF.
	buf := make([]byte, 100)
	n, err := zr.ReadAt(buf, int64(len(data))-30)
	if n != 30 || err != io.EOF {
		t.Fatalf("ReadAt past end: n=%d err=%v", n, err)
	}
}

// TestReadAtWindows pins ReadAt, and the stream position it leaves
// behind, against the plaintext over seeded windows of every kind:
// mid-chunk offsets, chunk and checkpoint boundaries, windows spanning
// a checkpoint, empty windows, the last byte and windows running past
// the end. After each ReadAt a Read to EOF must return the rest of the
// stream, and a relative Seek back must serve the same bytes again. The
// BCH configuration takes the generic record path, the flushed one cuts
// each checkpoint span into several groups.
func TestReadAtWindows(t *testing.T) {
	dict, err := TrainDict(sensorLike(t, 1<<14, 61), Config{})
	if err != nil {
		t.Fatal(err)
	}
	const every = 4 << 10
	plain := sensorLike(t, 40<<10+13, 62)
	size := int64(len(plain))
	for _, tc := range []struct {
		name       string
		cfg        Config
		dict       *Dict
		flushEvery int // plaintext bytes between Flushes; 0: none
	}{
		{"default", Config{}, nil, 0},
		{"dict", Config{}, dict, 0},
		{"bch-t2", Config{T: 2}, nil, 0},
		{"flushed", Config{}, nil, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			opts := []Option{tc.cfg, WithIndex(every)}
			var ropts []Option
			if tc.dict != nil {
				opts = append(opts, WithDict(tc.dict))
				ropts = append(ropts, WithDict(tc.dict))
			}
			zw, err := NewWriter(&buf, opts...)
			if err != nil {
				t.Fatal(err)
			}
			step := len(plain)
			if tc.flushEvery > 0 {
				step = tc.flushEvery
			}
			for rest := plain; len(rest) > 0; {
				n := min(step, len(rest))
				if _, err := zw.Write(rest[:n]); err != nil {
					t.Fatal(err)
				}
				if tc.flushEvery > 0 {
					if err := zw.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				rest = rest[n:]
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			cs := int64(MustCodec(tc.cfg).ChunkSize())

			windows := [][2]int64{
				{0, 0}, {0, 1}, {0, 4096}, {cs - 1, cs + 2}, {cs, cs},
				{every - 1, 2}, {every, 100}, {every - 100, 200},
				{3*every + 17, 2 * every}, {5*every - cs, cs},
				{size - 1, 1}, {size - 1, 10}, {size - 5, 100},
				{size, 0}, {size, 5}, {size - size%cs, size % cs},
			}
			rng := newTestRand(63)
			for len(windows) < 80 {
				var off int64
				switch rng.Intn(4) {
				case 0: // chunk boundary
					off = rng.Int63n(size/cs+1) * cs
				case 1: // near a checkpoint
					off = rng.Int63n(size/every+1)*every + rng.Int63n(2*cs) - cs
				default: // anywhere, mid-chunk included
					off = rng.Int63n(size + 1)
				}
				off = max(0, min(off, size))
				windows = append(windows, [2]int64{off, rng.Int63n(3 * every)})
			}

			zr, err := NewReader(bytes.NewReader(buf.Bytes()), ropts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range windows {
				off, n := w[0], w[1]
				want := plain[off:min(off+n, size)]
				p := make([]byte, n)
				got, err := zr.ReadAt(p, off)
				if off+n > size {
					if got != len(want) || err != io.EOF {
						t.Fatalf("ReadAt(off=%d, n=%d) past the end = %d, %v; want %d, io.EOF", off, n, got, err, len(want))
					}
				} else if got != int(n) || err != nil {
					t.Fatalf("ReadAt(off=%d, n=%d) = %d, %v", off, n, got, err)
				}
				if !bytes.Equal(p[:got], want) {
					t.Fatalf("ReadAt(off=%d, n=%d) returned the wrong bytes", off, n)
				}
				rest, err := io.ReadAll(zr)
				if err != nil || !bytes.Equal(rest, plain[off+int64(got):]) {
					t.Fatalf("Read to EOF after ReadAt(off=%d, n=%d): %d bytes, %v; want the %d after the window",
						off, n, len(rest), err, size-off-int64(got))
				}
				k := 1 + rng.Int63n(min(size, 3*every))
				if pos, err := zr.Seek(-k, io.SeekCurrent); err != nil || pos != size-k {
					t.Fatalf("Seek(-%d, io.SeekCurrent) at the end = %d, %v; want %d", k, pos, err, size-k)
				}
				back, err := io.ReadAll(zr)
				if err != nil || !bytes.Equal(back, plain[size-k:]) {
					t.Fatalf("Read after Seek(-%d, io.SeekCurrent): %d bytes, %v", k, len(back), err)
				}
			}
		})
	}
}

// TestReadAtAllocs pins the random-read steady state: a warm 4 KiB
// ReadAt decodes into the Reader's recycled output buffer and, with
// every record a dictionary hit, allocates nothing.
func TestReadAtAllocs(t *testing.T) {
	plain := sensorLike(t, 256<<10, 64)
	dict, err := TrainDict(plain, Config{})
	if err != nil {
		t.Fatal(err)
	}
	zr, err := NewReader(bytes.NewReader(indexedStream(t, plain, 0, dict)), WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRand(65)
	offs := make([]int64, 64)
	for i := range offs {
		offs[i] = rng.Int63n(int64(len(plain)) - 4096 + 1)
	}
	p := make([]byte, 4096)
	i := 0
	read := func() {
		off := offs[i%len(offs)]
		i++
		if n, err := zr.ReadAt(p, off); n != len(p) || err != nil || !bytes.Equal(p, plain[off:off+4096]) {
			t.Fatalf("ReadAt(off=%d) = %d, %v", off, n, err)
		}
	}
	for range offs {
		read()
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("warm 4 KiB ReadAt = %v allocs, want 0", allocs)
	}
}

// recordIDBits walks the records of the given group of an indexed
// container and returns, per record, the container bit offset of its
// identifier's most significant bit, or -1 for a miss.
func recordIDBits(t *testing.T, comp []byte, group int) []int {
	t.Helper()
	ix, err := readIndexFooter(bytes.NewReader(comp), 0)
	if err != nil {
		t.Fatal(err)
	}
	codec := MustCodec(Config{})
	start := int(ix.groups[group].compOff) + groupHeaderLen(streamV4)
	bitLen := int(binary.LittleEndian.Uint32(comp[ix.groups[group].compOff+4:]))
	var br bitvec.Reader
	br.ResetBits(comp[start:], bitLen)
	var ids []int
	for br.Remaining() > 0 {
		hit, _ := br.ReadBit()
		br.ReadUint(codec.DeviationBits() + 1)
		if !hit {
			ids = append(ids, -1)
			br.ReadVector(codec.BasisBits())
			continue
		}
		ids = append(ids, start*8+br.Pos())
		br.ReadUint(codec.cfg.IDBits)
	}
	return ids
}

// TestReadAtCorruptRecord states the corruption contract of a bounded
// ReadAt. A record whose identifier was flipped to one the dictionary
// never assigned fails the ReadAt whose range holds it. The same flip
// after the range, in the same group, leaves the ReadAt's bytes intact
// and fails the Read that reaches it, stickily. Sequential Read,
// DecodeAll and the lanes reject the stream as they always have.
func TestReadAtCorruptRecord(t *testing.T) {
	plain := sensorLike(t, 64<<10, 66)
	comp := indexedStream(t, plain, 0, nil)
	const group = 1 // the second 16 KiB checkpoint span, one group
	ids := recordIDBits(t, comp, group)
	// The window covers records 100..228 of the group.
	off, n := int64(defaultCheckpointBytes+100*32+5), 4096
	firstHit := func(from, to int) int {
		for i := from; i < to; i++ {
			if ids[i] >= 0 {
				return ids[i]
			}
		}
		t.Fatalf("no hit among records %d..%d", from, to)
		return 0
	}
	flip := func(bit int) []byte {
		b := append([]byte(nil), comp...)
		b[bit>>3] ^= 0x80 >> (bit & 7)
		return b
	}
	inside, after := flip(firstHit(150, 200)), flip(firstHit(300, len(ids)))

	zr, err := NewReader(bytes.NewReader(inside))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zr.ReadAt(make([]byte, n), off); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt over a corrupt record: err = %v, want ErrCorrupt", err)
	}

	zr, err = NewReader(bytes.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, n)
	if got, err := zr.ReadAt(p, off); got != n || err != nil || !bytes.Equal(p, plain[off:off+int64(n)]) {
		t.Fatalf("ReadAt before a corrupt record = %d, %v", got, err)
	}
	if _, err := io.ReadAll(zr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read reaching the corrupt record: err = %v, want ErrCorrupt", err)
	}
	if _, err := zr.Read(make([]byte, 1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read after the failure: err = %v, want the sticky ErrCorrupt", err)
	}

	for _, bad := range [][]byte{inside, after} {
		if _, err := decodeFresh(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("sequential Read: err = %v, want ErrCorrupt", err)
		}
		fan, err := NewReader(nil, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fan.DecodeAll(bad, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("fan-out DecodeAll: err = %v, want ErrCorrupt", err)
		}
		lanes, err := NewReader(iotest.OneByteReader(bytes.NewReader(bad)), WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(lanes); !errors.Is(err, ErrCorrupt) {
			t.Errorf("lanes: err = %v, want ErrCorrupt", err)
		}
		lanes.Close()
	}
}

// TestSeekThroughMidStreamTail: no writer puts a raw tail anywhere but
// last, but a crafted container can, and the serial walk accepts it.
// Seek skips records, not bytes, so a tail inside the skipped span can
// carry the walk past the target. Every seek must then land exactly or
// fail with ErrCorrupt, never serve bytes from another offset.
func TestSeekThroughMidStreamTail(t *testing.T) {
	chunks := sensorLike(t, 15*32, 67)
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, WithIndex(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(chunks[:320])
	if err := zw.Flush(); err != nil {
		t.Fatal(err)
	}
	zw.Write(chunks[320:])
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	comp := buf.Bytes()
	ix, err := readIndexFooter(bytes.NewReader(comp), 0)
	if err != nil || len(ix.groups) != 2 {
		t.Fatalf("writer emitted %v groups, %v; want 2", len(ix.groups), err)
	}
	// Splice a five-byte raw tail in as group 1 and renumber the second
	// record group to 2.
	tail := []byte("tail!")
	g1 := append([]byte(nil), comp[ix.groups[1].compOff:ix.trailerOff]...)
	binary.LittleEndian.PutUint32(g1[8:], 2)
	forged := append([]byte(nil), comp[:ix.groups[1].compOff]...)
	tailOff := uint64(len(forged))
	forged = binary.LittleEndian.AppendUint32(forged, uint32(3+len(tail)))
	forged = binary.LittleEndian.AppendUint32(forged, tailBlockFlag|uint32(8*(3+len(tail))))
	forged = binary.LittleEndian.AppendUint32(forged, 1)
	forged = append(forged, 0, 0, 0, 0, 0xFF, byte(len(tail)), 0)
	forged = append(forged, tail...)
	g1Off := uint64(len(forged))
	forged = append(forged, g1...)
	fix := streamIndex{
		uncompTotal: uint64(len(chunks) + len(tail)),
		trailerOff:  uint64(len(forged)),
		groups:      []indexGroup{ix.groups[0], {tailOff, 320}, {g1Off, 320 + uint64(len(tail))}},
		checkpoints: []uint32{0},
	}
	forged = append(forged, make([]byte, 16)...)
	forged = fix.appendFooter(forged)
	plain := bytes.Join([][]byte{chunks[:320], tail, chunks[320:]}, nil)

	if back, err := decodeFresh(forged); err != nil || !bytes.Equal(back, plain) {
		t.Fatalf("serial decode of the spliced stream: %v", err)
	}
	zr, err := NewReader(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off <= int64(len(plain)); off++ {
		if _, err := zr.Seek(off, io.SeekStart); err != nil {
			if !errors.Is(err, ErrCorrupt) || off <= 320 {
				t.Fatalf("Seek(%d): %v", off, err)
			}
			zr.Reset(bytes.NewReader(forged))
			continue
		}
		if rest, err := io.ReadAll(zr); err != nil || !bytes.Equal(rest, plain[off:]) {
			t.Fatalf("Read after Seek(%d): %d bytes, %v; want the %d after it", off, len(rest), err, len(plain)-int(off))
		}
	}
}

func TestSeekRequiresIndex(t *testing.T) {
	comp, err := encodeFresh(sensorLike(t, 4096, 6), Config{})
	if err != nil {
		t.Fatal(err)
	}
	zr := mustReader(t, bytes.NewReader(comp))
	if _, err := zr.Seek(0, io.SeekStart); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("Seek on unindexed stream: %v, want ErrNoIndex", err)
	}
	// Unseekable source.
	data := sensorLike(t, 4096, 6)
	zr2 := mustReader(t, bytes.NewBuffer(indexedStream(t, data, 0, nil)))
	if _, err := zr2.Seek(0, io.SeekStart); err == nil {
		t.Fatal("Seek on unseekable source must fail")
	}
}

// TestIndexedDecodeDifferential pins the indexed parallel decode —
// both one-shot and streaming — byte-identical to serial decode.
func TestIndexedDecodeDifferential(t *testing.T) {
	for _, size := range []int{0, 31, 1000, 16 << 10, 64 << 10, 200_000 + 7} {
		for _, every := range []int{0, 4 << 10, 40 << 10} {
			data := sensorLike(t, size, int64(size+every))
			comp := indexedStream(t, data, every, nil)

			serial, err := decodeFresh(comp)
			if err != nil {
				t.Fatalf("size=%d every=%d: serial: %v", size, every, err)
			}
			zr, err := NewReader(nil, WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			oneShot, err := zr.DecodeAll(comp, nil)
			if err != nil {
				t.Fatalf("size=%d every=%d: DecodeAll: %v", size, every, err)
			}
			if !bytes.Equal(oneShot, serial) {
				t.Fatalf("size=%d every=%d: indexed DecodeAll diverges from serial", size, every)
			}
			// Pooled second call.
			if again, err := zr.DecodeAll(comp, nil); err != nil || !bytes.Equal(again, serial) {
				t.Fatalf("size=%d every=%d: pooled DecodeAll diverges: %v", size, every, err)
			}

			sr, err := NewReader(bytes.NewReader(comp), WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := io.ReadAll(sr)
			if err != nil {
				t.Fatalf("size=%d every=%d: streaming fan-out: %v", size, every, err)
			}
			if !bytes.Equal(streamed, serial) {
				t.Fatalf("size=%d every=%d: streaming fan-out diverges from serial", size, every)
			}
			if err := sr.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIndexedDecodeAllAppends pins DecodeAll's append contract on the
// fan-out path: dst's existing bytes survive in place.
func TestIndexedDecodeAllAppends(t *testing.T) {
	data := sensorLike(t, 64<<10, 11)
	comp := indexedStream(t, data, 0, nil)
	zr, err := NewReader(nil, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("already-here")
	out, err := zr.DecodeAll(comp, append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], data) {
		t.Fatal("DecodeAll did not append to dst")
	}
}

// TestIndexedStatsMatchSerial pins the fan-out reader's Stats against
// the serial reader's: same chunks, hits, misses, tail.
func TestIndexedStatsMatchSerial(t *testing.T) {
	data := sensorLike(t, 64<<10+9, 12)
	comp := indexedStream(t, data, 0, nil)
	ser := mustReader(t, bytes.NewReader(comp))
	if _, err := io.Copy(io.Discard, ser); err != nil {
		t.Fatal(err)
	}
	par, err := NewReader(bytes.NewReader(comp), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, par); err != nil {
		t.Fatal(err)
	}
	if ser.Stats != par.Stats {
		t.Fatalf("stats diverge: serial %+v parallel %+v", ser.Stats, par.Stats)
	}
}

// TestIndexedFooterCorruption: every way the footer can lie must be
// detected, and on the workers path it must surface as an error — not
// silently decode serially.
func TestIndexedFooterCorruption(t *testing.T) {
	data := sensorLike(t, 64<<10, 13)
	comp := indexedStream(t, data, 0, nil)
	fl := int(binary.LittleEndian.Uint32(comp[len(comp)-8:]))
	footerStart := len(comp) - fl

	mutate := map[string]func(b []byte) []byte{
		"crc-flip": func(b []byte) []byte {
			b[footerStart+indexFixedLen] ^= 0x01 // first group offset byte
			return b
		},
		"length-flip": func(b []byte) []byte {
			b[len(b)-8] ^= 0x01
			return b
		},
		"end-magic": func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		},
		"truncated-footer": func(b []byte) []byte {
			return b[:len(b)-4]
		},
		"checkpoint-past-eof": func(b []byte) []byte {
			// Point the trailer offset beyond the container.
			binary.LittleEndian.PutUint64(b[footerStart+28:], uint64(len(b))+1000)
			return resealFooter(b, footerStart)
		},
		"size-off-by-one": func(b []byte) []byte {
			// A structurally valid footer that lies about the decoded
			// size: only comparing it with what was read catches it.
			binary.LittleEndian.PutUint64(b[footerStart+20:], uint64(len(data))+1)
			return resealFooter(b, footerStart)
		},
	}
	for name, fn := range mutate {
		bad := fn(append([]byte(nil), comp...))
		zr, err := NewReader(nil, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zr.DecodeAll(bad, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeAll err = %v, want ErrCorrupt", name, err)
		}
		// Streaming: the serial walk and the lane pump both end at the
		// footer, seekable source or not.
		for _, workers := range []int{1, 4} {
			for sname, src := range map[string]io.Reader{
				"bytes.Reader": bytes.NewReader(bad),
				"non-seekable": iotest.OneByteReader(bytes.NewReader(bad)),
			} {
				sr, err := NewReader(src, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadAll(sr); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: streaming workers=%d over %s: err = %v, want ErrCorrupt", name, workers, sname, err)
				}
				sr.Close()
			}
		}
	}
}

// forgedCheckpointStream builds a two-group indexed container — chunks
// A B, a Flush, then C A, under one checkpoint — and re-emits its
// footer, CRC and all, listing the second group as a checkpoint too.
// That group's header carries no checkpoint flag: its records were
// encoded against the dictionary A and B left behind, and a decoder
// entering it cold gives C the identifier A holds in the true timeline.
func forgedCheckpointStream(t testing.TB) (comp, plain []byte) {
	t.Helper()
	chunks := make([]byte, 3*32)
	newTestRand(41).Read(chunks)
	a, b, c := chunks[:32], chunks[32:64], chunks[64:]
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, WithIndex(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(a)
	zw.Write(b)
	if err := zw.Flush(); err != nil {
		t.Fatal(err)
	}
	zw.Write(c)
	zw.Write(a)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	comp = buf.Bytes()
	footerStart := len(comp) - int(binary.LittleEndian.Uint32(comp[len(comp)-8:]))
	ix, err := parseIndexFooter(comp[footerStart:], uint64(footerStart))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.groups) != 2 || len(ix.checkpoints) != 1 {
		t.Fatalf("writer emitted %d groups, %d checkpoints; want 2 and 1", len(ix.groups), len(ix.checkpoints))
	}
	ix.checkpoints = []uint32{0, 1}
	return ix.appendFooter(comp[:footerStart:footerStart]), bytes.Join([][]byte{a, b, c, a}, nil)
}

// TestForgedCheckpointRejected: a CRC-valid footer that lists an
// unflagged group as a checkpoint must not steer the index-driven
// paths into that group with a fresh dictionary — they used to return
// a nil error and bytes the serial decode never produces. The walks
// that follow the in-band flags do not consult the checkpoint list and
// keep decoding the stream.
func TestForgedCheckpointRejected(t *testing.T) {
	forged, plain := forgedCheckpointStream(t)

	serial, err := decodeFresh(forged)
	if err != nil || !bytes.Equal(serial, plain) {
		t.Fatalf("serial decode: err = %v, %d bytes; want the %d written", err, len(serial), len(plain))
	}
	if !differentialLanes(t, forged) {
		t.Fatal("the streaming lanes rejected a stream they decode by its in-band flags")
	}

	sk, err := NewReader(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Seek(64, io.SeekStart); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Seek(64) err = %v, want ErrCorrupt", err)
	}
	ra, err := NewReader(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 64)
	if n, err := ra.ReadAt(p, 64); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadAt(p, 64) = %d, %v (read %x, written %x), want ErrCorrupt", n, err, p[:n], plain[64:])
	}
	fan, err := NewReader(nil, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := fan.DecodeAll(forged, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("fan-out DecodeAll err = %v (equal to the serial decode: %v), want ErrCorrupt", err, bytes.Equal(out, plain))
	}
}

// TestIndexedLanesFromPipe pins the lane rule itself: a single-shard
// indexed stream read from a source that can neither Seek nor ReadAt is
// decoded on several lanes, to the serial Reader's bytes and Stats.
func TestIndexedLanesFromPipe(t *testing.T) {
	data := sensorLike(t, 96<<10+9, 31)
	comp := indexedStream(t, data, 0, nil)
	ser := mustReader(t, bytes.NewReader(comp))
	want, err := io.ReadAll(ser)
	if err != nil {
		t.Fatal(err)
	}
	src := iotest.OneByteReader(bytes.NewReader(comp))
	if _, ok := src.(io.Seeker); ok {
		t.Fatal("test source is seekable")
	}
	if _, ok := src.(io.ReaderAt); ok {
		t.Fatal("test source is an io.ReaderAt")
	}
	zr, err := NewReader(src, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !bytes.Equal(got, data) {
		t.Fatal("lane decode diverges from serial decode")
	}
	if zr.Stats != ser.Stats {
		t.Fatalf("stats diverge: serial %+v lanes %+v", ser.Stats, zr.Stats)
	}
	if zr.par == nil || len(zr.par.laneStats) != 3 {
		t.Fatalf("expected the 3-lane engine, got %+v", zr.par)
	}
	// Seven checkpoints dealt round-robin: every lane decoded records.
	for lane, st := range zr.par.laneStats {
		if st.Chunks == 0 {
			t.Errorf("lane %d decoded nothing: %+v", lane, zr.par.laneStats)
		}
	}
}

// TestStreamTruncatedAtEveryBoundary cuts containers of every version
// at every single byte offset: no truncation may ever read as a clean
// end of stream, and any cut inside a structure must be reported as
// io.ErrUnexpectedEOF (wrapped in ErrCorrupt).
func TestStreamTruncatedAtEveryBoundary(t *testing.T) {
	dict, err := TrainDict(sensorLike(t, 1<<13, 14), Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := sensorLike(t, 3000, 15)
	data = append(data, []byte("odd-tail")...) // force a tail block

	streams := map[string][]byte{}
	v1, err := encodeFresh(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	streams["v1-serial"] = v1
	v2, err := compressSharded(data, Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	streams["v2-sharded"] = v2
	var v3buf bytes.Buffer
	zw, err := NewWriter(&v3buf, WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	streams["v3-dict"] = v3buf.Bytes()
	streams["v4-indexed"] = indexedStream(t, data, 1<<10, nil)

	decode := map[string]func(src []byte) error{
		"serial": func(src []byte) error {
			opts := []Option{WithDict(dict)}
			zr, err := NewReader(bytes.NewReader(src), opts...)
			if err != nil {
				return err
			}
			_, err = io.ReadAll(zr)
			return err
		},
		"workers": func(src []byte) error {
			zr, err := NewReader(bytes.NewReader(src), WithDict(dict), WithWorkers(4))
			if err != nil {
				return err
			}
			defer zr.Close()
			_, err = io.ReadAll(zr)
			return err
		},
		"decodeall": func(src []byte) error {
			zr, err := NewReader(nil, WithDict(dict), WithWorkers(4))
			if err != nil {
				return err
			}
			_, err = zr.DecodeAll(src, nil)
			return err
		},
	}

	for sname, full := range streams {
		for cut := 0; cut < len(full); cut++ {
			trunc := full[:cut:cut]
			for dname, dec := range decode {
				err := dec(trunc)
				if err == nil {
					t.Fatalf("%s/%s cut at %d/%d: truncated container decoded cleanly",
						sname, dname, cut, len(full))
				}
				if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s/%s cut at %d/%d: clean io.EOF for a truncated container: %v",
						sname, dname, cut, len(full), err)
				}
			}
		}
	}
}

// TestReaderResetAfterError pins the reuse-after-failure contract:
// Reset must clear the sticky error, and a dictionary that absorbed
// dynamic entries from a poisoned stream must shed everything past the
// frozen prefix before re-serving.
func TestReaderResetAfterError(t *testing.T) {
	dict, err := TrainDict(sensorLike(t, 1<<13, 16), Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := sensorLike(t, 20<<10, 17)
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Cut the stream inside the trailer group: every record group
	// decodes first (mutating the reader's dictionary), then the
	// truncated trailer fails — record bodies carry no checksum, so a
	// bit flip would not reliably error, but a missing trailer must.
	bad := good[: len(good)-8 : len(good)-8]

	zr, err := NewReader(bytes.NewReader(bad), WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(zr); err == nil {
		t.Fatal("corrupted stream decoded cleanly")
	}
	if _, rerr := zr.Read(make([]byte, 1)); rerr == nil {
		t.Fatal("sticky error not sticky")
	}
	// The failed stream's decoder holds dynamic entries; Reset must
	// clear them back to the frozen prefix…
	zr.Reset(bytes.NewReader(good))
	back, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("reuse after error: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("reuse after error: wrong bytes")
	}
	// …and the reused decoder's dictionary must track the stream
	// exactly: its dynamic size equals what a fresh reader ends with.
	fresh, err := NewReader(bytes.NewReader(good), WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(fresh); err != nil {
		t.Fatal(err)
	}
	if got, want := zr.decs[0].dict.Len(), fresh.decs[0].dict.Len(); got != want {
		t.Fatalf("reused dictionary has %d entries, fresh decode has %d", got, want)
	}
	last := uint32(dict.Len() - 1)
	if got, ok := zr.decs[0].dict.LookupID(last); !ok || !got.Equal(dict.frozen.Basis(last)) {
		t.Fatalf("frozen prefix lost: id %d resolves to %v, %v", last, got, ok)
	}
	// Mid-stream error path again, then Reset with NO successful decode
	// in between: the dictionary must still start from the prefix only.
	zr.Reset(bytes.NewReader(bad))
	if _, err := io.ReadAll(zr); err == nil {
		t.Fatal("corrupted stream decoded cleanly on reuse")
	}
	zr.Reset(bytes.NewReader(good))
	if back, err := io.ReadAll(zr); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("second reuse after error: %v", err)
	}
}

// TestIndexedEncodeAllMatchesStreaming pins the pooled one-shot
// encoder's output byte-identical to the streaming writer when
// WithIndex is configured.
func TestIndexedEncodeAllMatchesStreaming(t *testing.T) {
	data := sensorLike(t, 40<<10+21, 18)
	streamed := indexedStream(t, data, 0, nil)
	zw, err := NewWriter(nil, WithIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	one := zw.EncodeAll(data, nil)
	if !bytes.Equal(one, streamed) {
		t.Fatal("EncodeAll(WithIndex) diverges from streaming writer")
	}
	// And round-trips through the indexed fan-out.
	zr, err := NewReader(nil, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	back, err := zr.DecodeAll(one, nil)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("indexed EncodeAll output did not round-trip: %v", err)
	}
}

// TestIndexedWriterReset pins pooled reuse of an indexed Writer: the
// second stream must be byte-identical to a fresh writer's.
func TestIndexedWriterReset(t *testing.T) {
	data := sensorLike(t, 40<<10, 19)
	var a, b bytes.Buffer
	zw, err := NewWriter(&a, WithIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*bytes.Buffer{&a, &b} {
		zw.Reset(w)
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("indexed Writer.Reset is not deterministic")
	}
	if !bytes.Equal(a.Bytes(), indexedStream(t, data, 0, nil)) {
		t.Fatal("reused indexed Writer diverges from fresh writer")
	}
}

// FuzzDecodeIndexed drives arbitrary bytes — seeded with real indexed
// containers and targeted footer mutations — through every indexed
// decode surface. Whatever the input: no panics, streaming on lanes
// from a non-seekable source agrees exactly with serial streaming, the
// fan-out paths never accept what serial decoding rejects, and on
// shared accepts all outputs are byte-identical.
func FuzzDecodeIndexed(f *testing.F) {
	// Seeds stay small (16 KiB of plaintext): the fuzz engine minimizes
	// every coverage-expanding mutation for up to a minute, and that
	// converges orders of magnitude faster on ~20 KB containers than on
	// the megabyte streams the throughput tests use.
	seed := sensorLikeData(16<<10, 23)
	full := func(every int) []byte {
		var buf bytes.Buffer
		zw, err := NewWriter(&buf, WithIndex(every))
		if err != nil {
			return nil
		}
		zw.Write(seed)
		zw.Close()
		return buf.Bytes()
	}
	whole := full(4 << 10)
	f.Add(whole)         // index present, 4 segments
	f.Add(full(1 << 10)) // many segments
	f.Add(full(1 << 20)) // single segment
	if v1, err := encodeFresh(seed[:4096], Config{}); err == nil {
		f.Add(v1) // index absent
	}
	if len(whole) > 12 {
		crcFlipped := append([]byte(nil), whole...)
		crcFlipped[len(crcFlipped)-indexTailLen] ^= 0x01
		f.Add(crcFlipped) // CRC-flipped footer
		short := append([]byte(nil), whole...)
		f.Add(short[:len(short)-20]) // truncated footer
	}
	{
		// Zero-group index: an empty indexed stream.
		var buf bytes.Buffer
		if zw, err := NewWriter(&buf, WithIndex(0)); err == nil {
			zw.Close()
			f.Add(buf.Bytes())
		}
	}
	{
		// Checkpoint/trailer offset pointing past EOF, CRC repaired.
		bad := append([]byte(nil), whole...)
		fl := int(binary.LittleEndian.Uint32(bad[len(bad)-8:]))
		fs := len(bad) - fl
		if fs > 0 {
			binary.LittleEndian.PutUint64(bad[fs+28:], uint64(len(bad)+999))
			f.Add(resealFooter(bad, fs))
		}
	}

	for _, seed := range laneSeeds(f) {
		f.Add(seed.comp)
	}
	forged, _ := forgedCheckpointStream(f)
	f.Add(forged) // footer lists an unflagged group as a checkpoint

	f.Fuzz(func(t *testing.T, data []byte) {
		// Streaming is one engine under two schedules: exact agreement.
		differentialLanes(t, data)

		serial, serialErr := decodeFresh(data)

		zr, err := NewReader(nil, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		oneShot, oneErr := zr.DecodeAll(data, nil)

		sr, err := NewReader(bytes.NewReader(data), WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		streamed, streamErr := io.ReadAll(sr)
		sr.Close()

		// The fan-out may reject streams serial decoding tolerates (a
		// corrupt footer is invisible to a trailer-stopping reader),
		// never the reverse.
		if serialErr != nil {
			if oneErr == nil {
				t.Fatal("indexed DecodeAll accepted a stream serial decoding rejects")
			}
			if streamErr == nil {
				t.Fatal("indexed streaming accepted a stream serial decoding rejects")
			}
			return
		}
		if oneErr == nil && !bytes.Equal(oneShot, serial) {
			t.Fatal("indexed DecodeAll diverges from serial decode")
		}
		if streamErr == nil && !bytes.Equal(streamed, serial) {
			t.Fatal("indexed streaming decode diverges from serial decode")
		}

		// Seek must round-trip against the serially decoded bytes.
		if len(serial) > 0 {
			skr, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			off := int64(len(serial) / 3)
			if _, err := skr.Seek(off, io.SeekStart); err == nil {
				n := len(serial) - int(off)
				if n > 256 {
					n = 256
				}
				buf := make([]byte, n)
				if _, err := io.ReadFull(skr, buf); err != nil {
					t.Fatalf("read after fuzz Seek: %v", err)
				}
				if !bytes.Equal(buf, serial[off:int(off)+n]) {
					t.Fatal("Seek round trip diverges from serial decode")
				}
			}
			// A ReadAt window the input picks, then a Read on from its
			// end: both must agree with the serial decode.
			off = int64(len(serial)) * int64(data[0]) / 256
			n := int(data[len(data)-1]) << 5
			if len(data) > 1 {
				n |= int(data[1] & 31)
			}
			ra, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			p := make([]byte, n)
			got, err := ra.ReadAt(p, off)
			if err != nil && err != io.EOF {
				return
			}
			want := serial[off:min(int(off)+n, len(serial))]
			if got != len(want) || (err == io.EOF) != (int(off)+n > len(serial)) || !bytes.Equal(p[:got], want) {
				t.Fatalf("ReadAt(off=%d, n=%d) = %d, %v; diverges from serial decode", off, n, got, err)
			}
			if rest, err := io.ReadAll(ra); err == nil && !bytes.Equal(rest, serial[int(off)+got:]) {
				t.Fatalf("Read after ReadAt(off=%d, n=%d) diverges from serial decode", off, n)
			}
		}
	})
}

// errAfter fails with errWrite once limit bytes have been written —
// exercising writer error paths mid-stream.
type errAfter struct {
	limit int
	n     int
}

var errWrite = fmt.Errorf("synthetic write failure")

func (w *errAfter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > w.limit {
		return 0, errWrite
	}
	return len(p), nil
}

func TestIndexedWriterPropagatesWriteErrors(t *testing.T) {
	data := sensorLike(t, 64<<10, 20)
	// Let the header and a couple of groups through, then fail: the
	// footer write error must reach Close.
	for _, limit := range []int{4, 100, 2000} {
		zw, err := NewWriter(&errAfter{limit: limit}, WithIndex(0))
		if err != nil {
			t.Fatal(err)
		}
		_, werr := zw.Write(data)
		cerr := zw.Close()
		if werr == nil && cerr == nil {
			t.Fatalf("limit=%d: no error surfaced", limit)
		}
	}
}

// TestDecodeAllIndexedSpeedup pins the fan-out acceptance criterion:
// DecodeAll of an indexed stream with 4 workers must run at least 2x
// faster than the serial decode of the equivalent plain stream. The
// two paths share the same inner loop, so the speedup comes entirely
// from decoding checkpoint segments on real cores — the test skips on
// machines without at least 4 of them, where the criterion is
// physically unmeasurable (the fan-out then merely matches serial
// throughput; see BenchmarkDecodeAllIndexed).
func TestDecodeAllIndexedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("need >=4 CPUs for a meaningful fan-out speedup, have %d", n)
	}
	data := sensorLike(t, 1<<20, 29)
	dict, err := TrainDict(data[:1<<16], Config{})
	if err != nil {
		t.Fatal(err)
	}
	encSerial, err := NewWriter(nil, WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	encIdx, err := NewWriter(nil, WithDict(dict), WithIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	plain := encSerial.EncodeAll(data, nil)
	indexed := encIdx.EncodeAll(data, nil)

	decSerial, err := NewReader(nil, WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	decIdx, err := NewReader(nil, WithDict(dict), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved best-of-N: the minimum over several rounds is robust
	// against scheduler noise, and interleaving keeps cache/thermal
	// conditions comparable between the two paths.
	measure := func(zr *Reader, comp []byte) time.Duration {
		var buf []byte
		start := time.Now()
		buf, err := zr.DecodeAll(comp, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != len(data) {
			t.Fatalf("decoded %d bytes, want %d", len(buf), len(data))
		}
		return time.Since(start)
	}
	measure(decSerial, plain) // warm pools before timing
	measure(decIdx, indexed)
	serialBest, idxBest := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 5; round++ {
		serialBest = min(serialBest, measure(decSerial, plain))
		idxBest = min(idxBest, measure(decIdx, indexed))
	}
	if idxBest*2 > serialBest {
		t.Errorf("indexed 4-worker decode took %v, serial %v: speedup %.2fx < 2x",
			idxBest, serialBest, float64(serialBest)/float64(idxBest))
	}
	t.Logf("serial %v, indexed(4 workers) %v: %.2fx", serialBest, idxBest,
		float64(serialBest)/float64(idxBest))
}
