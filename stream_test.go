package zipline

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// encodeFresh encodes data as one stream through a fresh serial
// Writer: NewWriter(nil, cfg).EncodeAll.
func encodeFresh(data []byte, cfg Config) ([]byte, error) {
	zw, err := NewWriter(nil, cfg)
	if err != nil {
		return nil, err
	}
	return zw.EncodeAll(data, nil), nil
}

// decodeFresh decodes one stream of any dictless container version
// through a fresh Reader: NewReader(nil).DecodeAll.
func decodeFresh(data []byte) ([]byte, error) {
	zr, err := NewReader(nil)
	if err != nil {
		return nil, err
	}
	return zr.DecodeAll(data, nil)
}

func TestStreamRoundTripRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 31, 32, 33, 64, 1000, 100_000} {
		data := make([]byte, size)
		rng.Read(data)
		comp, err := encodeFresh(data, Config{})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		back, err := decodeFresh(comp)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("size %d: round trip failed", size)
		}
	}
}

func TestStreamCompressesRepetitiveData(t *testing.T) {
	// 10,000 copies of the same 32-byte chunk: first chunk is a
	// miss, everything after costs ≈26 bits.
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(2)).Read(chunk)
	data := bytes.Repeat(chunk, 10_000)
	comp, err := encodeFresh(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(comp)) / float64(len(data))
	// Ideal: ≈26/256 ≈ 0.10; allow slack for framing.
	if ratio > 0.12 {
		t.Fatalf("ratio = %.4f, want ≤ 0.12", ratio)
	}
	back, err := decodeFresh(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip failed")
	}
}

func TestStreamRandomDataCostsLittle(t *testing.T) {
	// Incompressible data: all misses; GD adds only the 2-bit tags
	// plus block framing (the paper's "applying GD does not introduce
	// additional bits" property, modulo framing).
	data := make([]byte, 64_000)
	rand.New(rand.NewSource(3)).Read(data)
	comp, err := encodeFresh(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	overhead := float64(len(comp))/float64(len(data)) - 1
	if overhead > 0.02 {
		t.Fatalf("overhead = %.4f, want ≤ 2%%", overhead)
	}
}

func TestStreamWriterStats(t *testing.T) {
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(4)).Read(chunk)
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := zw.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := zw.Write([]byte{1, 2, 3}); err != nil { // tail
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if zw.Stats.Chunks != 10 || zw.Stats.Misses != 1 || zw.Stats.Hits != 9 || zw.Stats.TailBytes != 3 {
		t.Fatalf("stats = %+v", zw.Stats)
	}
	// Reader sees the same accounting.
	zr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10*32+3 {
		t.Fatalf("out = %d bytes", len(out))
	}
	if zr.Stats.Chunks != 10 || zr.Stats.Hits != 9 || zr.Stats.TailBytes != 3 {
		t.Fatalf("reader stats = %+v", zr.Stats)
	}
}

func TestStreamSplitWrites(t *testing.T) {
	// Chunk boundaries must not matter: write in awkward pieces.
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 10_000)
	rng.Read(data)
	var buf bytes.Buffer
	zw, _ := NewWriter(&buf, Config{})
	for off := 0; off < len(data); {
		n := 1 + rng.Intn(100)
		if off+n > len(data) {
			n = len(data) - off
		}
		if _, err := zw.Write(data[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := io.ReadAll(mustReader(t, &buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip failed")
	}
}

func TestStreamSmallReads(t *testing.T) {
	data := bytes.Repeat([]byte("zipline!"), 1000)
	comp, _ := encodeFresh(data, Config{M: 5})
	zr := mustReader(t, bytes.NewReader(comp))
	var out []byte
	buf := make([]byte, 7) // deliberately tiny
	for {
		n, err := zr.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out, data) {
		t.Fatal("round trip failed")
	}
}

func TestStreamDictionaryEvictionLockstep(t *testing.T) {
	// More distinct bases than dictionary slots: encoder and decoder
	// must follow identical LRU evolutions.
	rng := rand.New(rand.NewSource(6))
	chunks := make([][]byte, 40) // 40 bases, dictionary holds 2^4=16
	for i := range chunks {
		chunks[i] = make([]byte, 32)
		rng.Read(chunks[i])
	}
	var data []byte
	for i := 0; i < 4000; i++ {
		data = append(data, chunks[rng.Intn(len(chunks))]...)
	}
	comp, err := encodeFresh(data, Config{IDBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeFresh(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("lockstep eviction broke the stream")
	}
}

func TestStreamAllMSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 5000)
	rng.Read(data)
	for m := 3; m <= 15; m++ {
		comp, err := encodeFresh(data, Config{M: m})
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

func TestStreamCorruptionDetected(t *testing.T) {
	data := bytes.Repeat([]byte{0xAA}, 3200)
	comp, _ := encodeFresh(data, Config{})
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("NOPE"), comp[4:]...),
		"bad version": append(append([]byte{}, comp[:4]...), append([]byte{99}, comp[5:]...)...),
		"truncated":   comp[:len(comp)-12],
		"no trailer":  comp[:len(comp)-8],
		"bad m":       append(append([]byte{}, comp[:5]...), append([]byte{77}, comp[6:]...)...),
	}
	for name, c := range cases {
		if _, err := decodeFresh(c); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

func TestStreamWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	zw, _ := NewWriter(&buf, Config{})
	zw.Close()
	if _, err := zw.Write([]byte{1}); err == nil {
		t.Fatal("write after close accepted")
	}
	// Double close is fine.
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamEmptyInput(t *testing.T) {
	comp, err := encodeFresh(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeFresh(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("back = %d bytes", len(back))
	}
}

func mustReader(t *testing.T, r io.Reader) *Reader {
	t.Helper()
	zr, err := NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	return zr
}

func BenchmarkStreamCompress(b *testing.B) {
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(chunk)
	data := bytes.Repeat(chunk, 4096)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeFresh(data, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamDecompress(b *testing.B) {
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(chunk)
	data := bytes.Repeat(chunk, 4096)
	comp, _ := encodeFresh(data, Config{})
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeFresh(comp); err != nil {
			b.Fatal(err)
		}
	}
}
