package zipline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
	"time"
)

// sensorLike builds a compressible test payload: many repeats of a few
// base chunks with single-bit glitches, the workload GD is built for.
// Shared with the external test package via export_test.go.
func sensorLike(t testing.TB, size int, seed int64) []byte {
	t.Helper()
	return sensorLikeData(size, seed)
}

// compressSharded compresses data in one call through workers shard
// encoders: how the tests build version-2 streams.
func compressSharded(data []byte, cfg Config, workers int) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, cfg, WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(data); err != nil {
		zw.Close() // release the workers; the write error wins
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sensorLikeData(size int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	bases := make([][]byte, 8)
	for i := range bases {
		bases[i] = make([]byte, 32)
		rng.Read(bases[i])
	}
	data := make([]byte, 0, size)
	for len(data) < size {
		chunk := append([]byte(nil), bases[rng.Intn(len(bases))]...)
		if rng.Intn(2) == 0 {
			chunk[rng.Intn(32)] ^= 1 << uint(rng.Intn(8))
		}
		data = append(data, chunk...)
	}
	return data[:size]
}

func TestParallelRoundTripWorkersAndSizes(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, size := range []int{0, 1, 31, 32, 1000, defaultSegmentBytes,
			defaultSegmentBytes + 17, 3*defaultSegmentBytes + 5} {
			data := sensorLike(t, size, int64(size)+int64(workers))
			comp, err := compressSharded(data, Config{}, workers)
			if err != nil {
				t.Fatalf("workers=%d size=%d: compress: %v", workers, size, err)
			}
			// ParallelWriter → ParallelReader.
			pr, err := NewParallelReader(bytes.NewReader(comp))
			if err != nil {
				t.Fatalf("workers=%d size=%d: %v", workers, size, err)
			}
			back, err := io.ReadAll(pr)
			if err != nil {
				t.Fatalf("workers=%d size=%d: read: %v", workers, size, err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("workers=%d size=%d: parallel round trip failed", workers, size)
			}
			// ParallelWriter → serial Reader (and one-shot DecodeAll).
			back, err = decodeFresh(comp)
			if err != nil {
				t.Fatalf("workers=%d size=%d: serial decode: %v", workers, size, err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("workers=%d size=%d: serial round trip failed", workers, size)
			}
		}
	}
}

func TestParallelReaderReadsSerialStreams(t *testing.T) {
	data := sensorLike(t, 100_000, 9)
	comp, err := encodeFresh(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewParallelReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	back, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("v1 fallback round trip failed")
	}
	if pr.Stats.Chunks == 0 || pr.Stats.Hits == 0 {
		t.Fatalf("stats not forwarded: %+v", pr.Stats)
	}
}

func TestParallelWriterStats(t *testing.T) {
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(4)).Read(chunk)
	data := append(bytes.Repeat(chunk, 100), 1, 2, 3) // 100 chunks + 3-byte tail
	var buf bytes.Buffer
	pw, err := NewParallelWriter(&buf, Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	// All 100 chunks share one basis, but each of the shards that saw
	// data learns it separately: one miss per active shard. 100 chunks
	// fit in one segment, so exactly one shard was active.
	if pw.Stats.Chunks != 100 || pw.Stats.Misses != 1 || pw.Stats.Hits != 99 || pw.Stats.TailBytes != 3 {
		t.Fatalf("writer stats = %+v", pw.Stats)
	}
	pr, err := NewParallelReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip failed")
	}
	if pr.Stats != pw.Stats {
		t.Fatalf("reader stats %+v != writer stats %+v", pr.Stats, pw.Stats)
	}
}

func TestParallelShardLockstepUnderEviction(t *testing.T) {
	// More distinct bases than dictionary slots, spread across several
	// segments and shards: every shard's encoder and decoder must walk
	// identical LRU evolutions.
	rng := rand.New(rand.NewSource(6))
	bases := make([][]byte, 40) // dictionary holds 2^4 = 16
	for i := range bases {
		bases[i] = make([]byte, 32)
		rng.Read(bases[i])
	}
	var data []byte
	for len(data) < 3*defaultSegmentBytes {
		data = append(data, bases[rng.Intn(len(bases))]...)
	}
	comp, err := compressSharded(data, Config{IDBits: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeFresh(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("lockstep eviction broke the sharded stream")
	}
}

func TestParallelSplitWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := sensorLike(t, 2*defaultSegmentBytes+999, 5)
	var buf bytes.Buffer
	pw, err := NewParallelWriter(&buf, Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); {
		n := 1 + rng.Intn(10_000)
		if off+n > len(data) {
			n = len(data) - off
		}
		if _, err := pw.Write(data[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	pr, err := NewParallelReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip failed")
	}
}

func TestParallelAllMSizes(t *testing.T) {
	data := sensorLike(t, 50_000, 7)
	for m := 3; m <= 15; m++ {
		comp, err := compressSharded(data, Config{M: m}, 4)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		back, err := decodeFresh(comp)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("m=%d: round trip failed", m)
		}
	}
}

func TestParallelWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewParallelWriter(&buf, Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write([]byte{1}); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := pw.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
}

// failAfterWriter fails every write once n bytes have passed through.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

func TestParallelWriterPropagatesWriteErrors(t *testing.T) {
	before := runtime.NumGoroutine()
	wantErr := errors.New("disk full")
	data := sensorLike(t, 4*defaultSegmentBytes, 11)
	pw, err := NewParallelWriter(&failAfterWriter{n: defaultSegmentBytes / 2, err: wantErr}, Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := pw.Write(data)
	cerr := pw.Close()
	if !errors.Is(werr, wantErr) && !errors.Is(cerr, wantErr) {
		t.Fatalf("write err = %v, close err = %v, want %v surfaced", werr, cerr, wantErr)
	}
	// Close after a failed Write must release the worker and collector
	// goroutines (give them a moment to unwind).
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, got)
	}
}

func TestParallelStreamCorruptionDetected(t *testing.T) {
	data := sensorLike(t, 2*defaultSegmentBytes, 13)
	comp, err := compressSharded(data, Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(c []byte) []byte) []byte {
		return f(append([]byte(nil), comp...))
	}
	cases := map[string][]byte{
		"truncated":  comp[:len(comp)-20],
		"no trailer": comp[:len(comp)-16],
		"zero shards": mutate(func(c []byte) []byte {
			c[8] = 0
			return c
		}),
		"out-of-order seq": mutate(func(c []byte) []byte {
			c[12+8] ^= 0xFF // seq word of the first group
			return c
		}),
		"bad shard": mutate(func(c []byte) []byte {
			c[12+12] = 200 // shard byte of the first group
			return c
		}),
	}
	for name, c := range cases {
		if _, err := decodeFresh(c); err == nil {
			t.Errorf("serial decode of %s succeeded", name)
		}
		pr, err := NewParallelReader(bytes.NewReader(c))
		if err == nil {
			_, err = io.ReadAll(pr)
		}
		if err == nil {
			t.Errorf("parallel decode of %s succeeded", name)
		}
	}
}

func TestParallelReaderCloseEarly(t *testing.T) {
	data := sensorLike(t, 6*defaultSegmentBytes, 15)
	sharded, err := compressSharded(data, Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, comp := range map[string][]byte{
		"sharded": sharded,
		"indexed": indexedStream(t, data, 0, nil), // 48 checkpoints dealt to 4 lanes
	} {
		before := runtime.NumGoroutine()
		pr, err := NewReader(iotest.OneByteReader(bytes.NewReader(comp)), WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1000)
		if _, err := pr.Read(buf); err != nil {
			t.Fatal(err)
		}
		if pr.par == nil {
			t.Fatalf("%s: stream did not start the lane engine", name)
		}
		if err := pr.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Read(buf); err == nil {
			t.Fatalf("%s: read after close accepted", name)
		}
		// A mid-stream Close must release the pump and every lane.
		for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("%s: goroutines leaked: %d before, %d after Close", name, before, got)
		}
	}
}

func TestCorruptShardCountDoesNotPreallocate(t *testing.T) {
	// A 12-byte forged v2 header claiming 255 shards at IDBits=24 must
	// not allocate 255 full-capacity dictionaries (~GBs) up front:
	// shard decoders are built lazily, so the header alone costs
	// nothing and decoding fails cleanly at the missing first group.
	hdr := []byte{'Z', 'L', 'G', 'D', streamV2, 8, 24, 1, 255, 0, 0, 0}
	if _, err := decodeFresh(hdr); err == nil {
		t.Fatal("truncated hostile header decoded successfully")
	}
	pr, err := NewParallelReader(bytes.NewReader(hdr))
	if err == nil {
		_, err = io.ReadAll(pr)
	}
	if err == nil {
		t.Fatal("parallel decode of hostile header succeeded")
	}
}

func TestCraftedMultiShardStreamBoundedMemory(t *testing.T) {
	// A hand-built v2 stream with IDBits=24 and 255 shards, each shard
	// receiving one minimal group (a single all-zero miss record: tag 0,
	// dev 0, extra 0, zero basis = 257 bits for m=8). Decoder memory
	// must track the 255 inserted entries, not 255 × 2^24 id slots.
	stream := []byte{'Z', 'L', 'G', 'D', streamV2, 8, 24, 1, 255, 0, 0, 0}
	for i := 0; i < 255; i++ {
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:], 33)  // ceil(257/8)
		binary.LittleEndian.PutUint32(hdr[4:], 257) // bitLen
		binary.LittleEndian.PutUint32(hdr[8:], uint32(i))
		hdr[12] = byte(i)
		stream = append(stream, hdr[:]...)
		stream = append(stream, make([]byte, 33)...)
	}
	stream = append(stream, make([]byte, 16)...) // trailer

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := decodeFresh(stream)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 255*32 {
		t.Fatalf("decoded %d bytes, want %d", len(out), 255*32)
	}
	// About 1 KiB a shard: a dictionary's first insert must cost a few
	// hundred bytes, not a slab chunk.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decoding 255 one-record shards allocated %d KiB, want at most 1 MiB", alloc>>10)
	}
}

func TestParallelCompressionStaysClose(t *testing.T) {
	// Sharding splits the dictionary, so the parallel ratio may lag
	// the serial one, but on a repetitive workload it must stay in the
	// same regime (well below 0.5 where serial reaches ~0.15).
	data := sensorLike(t, 8*defaultSegmentBytes, 21)
	serial, err := encodeFresh(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := compressSharded(data, Config{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sr := float64(len(serial)) / float64(len(data))
	prr := float64(len(par)) / float64(len(data))
	if prr > 3*sr+0.05 {
		t.Fatalf("parallel ratio %.3f too far above serial %.3f", prr, sr)
	}
}
