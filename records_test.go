package zipline

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// widestConfig returns the accepted Config whose hit record
// (tag | deviation | extra | id) is widest: 24-bit identifiers and the
// widest deviation over every M and T that NewCodec takes.
func widestConfig(t testing.TB) (Config, int) {
	t.Helper()
	var best Config
	width := 0
	for m := 3; m <= 15; m++ {
		for tt := 1; tt <= 3; tt++ {
			cfg := Config{M: m, T: tt, IDBits: 24}
			c, err := NewCodec(cfg)
			if err != nil {
				continue // BCH generators past the syndrome limit
			}
			if w := 2 + c.DeviationBits() + cfg.IDBits; w > width {
				best, width = cfg, w
			}
		}
	}
	return best, width
}

// TestWideRecordRoundTrip encodes all-hit and all-miss inputs under the
// widest accepted Config, through the streaming Writer and Reader and
// through EncodeAll and DecodeAll. The encoder writes a hit record with
// one WriteUint and reads its header with one ReadUint, so the record
// must fit those calls at every bit offset of a block, including the
// last bytes of the block buffer.
func TestWideRecordRoundTrip(t *testing.T) {
	cfg, width := widestConfig(t)
	if width > 64 {
		t.Fatalf("hit record of %d bits does not fit one WriteUint", width)
	}
	codec := MustCodec(cfg)
	cs := codec.ChunkSize()
	rng := newTestRand(37)
	bases := make([][]byte, 5)
	for i := range bases {
		bases[i] = make([]byte, cs)
		rng.Read(bases[i])
	}
	var hits []byte
	for i := 0; i < 300; i++ {
		hits = append(hits, bases[rng.Intn(len(bases))]...)
	}
	hits = append(hits, "tail"...)
	miss := make([]byte, 300*cs+3)
	rng.Read(miss)
	dict, err := TrainDict(hits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		data  []byte
		opts  []Option
		allIn bool // every chunk a hit (true) or a miss (false)
	}{
		{"all-hit", hits, []Option{cfg, WithDict(dict)}, true},
		{"all-miss", miss, []Option{cfg}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			zw, err := NewWriter(&buf, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := zw.Write(tc.data); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			chunks := uint64(len(tc.data) / cs)
			if tc.allIn && zw.Stats.Hits != chunks || !tc.allIn && zw.Stats.Misses != chunks {
				t.Fatalf("stats %+v over %d chunks", zw.Stats, chunks)
			}
			if one := zw.EncodeAll(tc.data, nil); !bytes.Equal(one, buf.Bytes()) {
				t.Fatal("EncodeAll differs from the streaming Writer")
			}
			zr, err := NewReader(bytes.NewReader(buf.Bytes()), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			back, err := io.ReadAll(zr)
			if err != nil || !bytes.Equal(back, tc.data) {
				t.Fatalf("Reader round trip: err %v, equal %v", err, bytes.Equal(back, tc.data))
			}
			if zr.Stats.Hits != zw.Stats.Hits || zr.Stats.Misses != zw.Stats.Misses {
				t.Fatalf("reader stats %+v, writer %+v", zr.Stats, zw.Stats)
			}
			back, err = zr.DecodeAll(buf.Bytes(), nil)
			if err != nil || !bytes.Equal(back, tc.data) {
				t.Fatalf("DecodeAll round trip: err %v, equal %v", err, bytes.Equal(back, tc.data))
			}
		})
	}
}

// TestReaderAllMissZeroAllocs pins the decode side of the record path:
// a warm Reader decoding a random-bytes stream, where every record is a
// miss that carries its basis, reads each basis into scratch the
// decoder owns and allocates nothing per block.
func TestReaderAllMissZeroAllocs(t *testing.T) {
	plain := make([]byte, 256<<10+5) // several groups and a raw tail
	rand.New(rand.NewSource(38)).Read(plain)
	comp, err := encodeFresh(plain, Config{})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(comp)
	zr, err := NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4096)
	n := 0
	decode := func() {
		src.Reset(comp)
		zr.Reset(src)
		n = 0
		for {
			k, err := zr.Read(p)
			if k > 0 && !bytes.Equal(p[:k], plain[n:n+k]) {
				t.Fatalf("decoded bytes differ at %d", n)
			}
			n += k
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	decode() // warmup: block and output scratch grow once
	if n != len(plain) || zr.Stats.Hits != 0 {
		t.Fatalf("decoded %d of %d bytes, %d hits", n, len(plain), zr.Stats.Hits)
	}
	if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
		t.Fatalf("warm all-miss decode = %v allocs per stream, want 0", allocs)
	}
	dst := make([]byte, 0, len(plain))
	oneShot := func() {
		var err error
		if dst, err = zr.DecodeAll(comp, dst[:0]); err != nil {
			t.Fatal(err)
		}
	}
	oneShot()
	if !bytes.Equal(dst, plain) {
		t.Fatal("DecodeAll round trip failed")
	}
	if raceEnabled {
		return // sync.Pool drops puts under -race by design
	}
	if allocs := testing.AllocsPerRun(20, oneShot); allocs != 0 {
		t.Fatalf("warm all-miss DecodeAll = %v allocs, want 0", allocs)
	}
}

// partitionEngines are the writer engines whose output must not depend
// on how the input is split into Write calls.
var partitionEngines = []struct {
	name string
	opts []Option
}{
	{"serial", nil},
	{"index", []Option{WithIndex(4 << 10)}},
	{"workers2", []Option{WithWorkers(2)}},
}

// writePartitioned streams data through a fresh Writer in the given
// pieces (lengths summing to len(data)), with no Flush, and returns the
// container.
func writePartitioned(t testing.TB, data []byte, pieces []int, opts []Option) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range pieces {
		if k, err := zw.Write(data[:n]); k != n || err != nil {
			zw.Close()
			t.Fatalf("Write(%d bytes) = %d, %v", n, k, err)
		}
		data = data[n:]
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkPartition compares the container each engine writes for data cut
// into pieces against the one it writes for a single Write, and the
// single-shard engines against EncodeAll.
func checkPartition(t *testing.T, data []byte, pieces []int) {
	t.Helper()
	for _, e := range partitionEngines {
		want := writePartitioned(t, data, []int{len(data)}, e.opts)
		if e.name != "workers2" { // EncodeAll always runs one shard
			zw, err := NewWriter(nil, e.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if one := zw.EncodeAll(data, nil); !bytes.Equal(one, want) {
				t.Fatalf("%s: a single Write differs from EncodeAll", e.name)
			}
		}
		if got := writePartitioned(t, data, pieces, e.opts); !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes in %d Writes %v… differ from one Write",
				e.name, len(data), len(pieces), pieces[:min(len(pieces), 8)])
		}
	}
}

// randomPartition cuts n bytes into pieces: empty writes, single bytes,
// sub-chunk and multi-block writes, at seeded random lengths.
func randomPartition(rng *rand.Rand, n int) []int {
	var pieces []int
	for n > 0 {
		var k int
		switch rng.Intn(4) {
		case 0:
			k = rng.Intn(2) // 0 or 1
		case 1:
			k = rng.Intn(64)
		case 2:
			k = rng.Intn(4 << 10)
		default:
			k = rng.Intn(200 << 10)
		}
		k = min(k, n)
		pieces = append(pieces, k)
		n -= k
	}
	return pieces
}

// TestWritePartition: for the serial writer, the indexed writer and
// two shards, every partition of the input into Write calls gives the
// same container bytes, and a single-shard container equals EncodeAll.
func TestWritePartition(t *testing.T) {
	sensor := sensorLikeData(300<<10+11, 39)
	noise := make([]byte, 90<<10+3)
	rand.New(rand.NewSource(40)).Read(noise)
	rng := newTestRand(41)
	for _, data := range [][]byte{sensor, noise, sensor[:31], nil} {
		checkPartition(t, data, []int{len(data)})
		for trial := 0; trial < 4; trial++ {
			checkPartition(t, data, randomPartition(rng, len(data)))
		}
	}
	// Chunk-sized and one-off-chunk-sized writes throughout.
	for _, k := range []int{1, 31, 32, 33, 4095} {
		var pieces []int
		for n := len(sensor); n > 0; n -= min(k, n) {
			pieces = append(pieces, min(k, n))
		}
		checkPartition(t, sensor, pieces)
	}
}

// FuzzWritePartition: the fuzzer picks the input and the cut points;
// every engine must write the same container as for one Write.
func FuzzWritePartition(f *testing.F) {
	f.Add(sensorLikeData(5000, 42), []byte{1, 31, 32, 200, 0, 7})
	f.Add([]byte("zipline partition"), []byte{3})
	f.Add(bytes.Repeat([]byte{0x5A}, 70_000), []byte{255, 0, 33, 128})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var pieces []int
		rest := len(data)
		for i := 0; rest > 0; i++ {
			k := rest
			if len(cuts) > 0 {
				// Cut bytes scale to lengths up to ~8 KiB, so a short cut
				// list still spans several chunks and blocks.
				k = min(rest, int(cuts[i%len(cuts)])*int(cuts[i%len(cuts)])/8)
			}
			pieces = append(pieces, k)
			rest -= k
			if i > 1<<16 {
				pieces = append(pieces, rest)
				break
			}
		}
		checkPartition(t, data, pieces)
	})
}
