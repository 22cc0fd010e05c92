package zipline

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// FuzzDecompressBytes: arbitrary input must never panic the one-shot
// stream decoder (a fresh Reader's DecodeAll) — it either round-fails
// with an error or decodes quietly.
func FuzzDecompressBytes(f *testing.F) {
	// Seed with valid streams of several shapes plus junk.
	for _, data := range [][]byte{
		nil,
		[]byte("not a stream"),
		bytes.Repeat([]byte{0xA5}, 100),
	} {
		f.Add(data)
	}
	if comp, err := encodeFresh(bytes.Repeat([]byte{1, 2, 3, 4}, 100), Config{}); err == nil {
		f.Add(comp)
	}
	if comp, err := encodeFresh([]byte("tail-only"), Config{M: 5}); err == nil {
		f.Add(comp)
	}
	// Sharded v2 containers: several shard counts, a multi-segment
	// stream (groups on more than one shard) and a tail-bearing one.
	if comp, err := compressSharded(bytes.Repeat([]byte{9, 8, 7, 6}, 100), Config{}, 3); err == nil {
		f.Add(comp)
	}
	if comp, err := compressSharded(bytes.Repeat([]byte{0xAB}, 2*defaultSegmentBytes+5), Config{}, 2); err == nil {
		f.Add(comp)
	}
	if comp, err := compressSharded([]byte("v2 tail-only"), Config{M: 5}, 4); err == nil {
		f.Add(comp)
	}
	// Dictionary-framed v3 containers: the dictless decoder must
	// reject them cleanly (ErrDictRequired), and mutated dict frames —
	// truncated header, flipped dict-ID — must never panic it.
	if comp := fuzzDictStream(); comp != nil {
		f.Add(comp)
		f.Add(append([]byte(nil), comp[:14]...)) // truncated inside the dict frame
		mut := append([]byte(nil), comp...)
		mut[12] ^= 0xFF // dict-ID byte
		f.Add(mut)
		mut = append([]byte(nil), comp...)
		mut[9] = 0xFE // unknown header flags
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := decodeFresh(data)
		if err == nil && len(out) > 1<<26 {
			t.Fatalf("implausible expansion: %d bytes", len(out))
		}
	})
}

// fuzzDictStream builds a deterministic dictionary-framed stream for
// the decoder corpora.
func fuzzDictStream() []byte {
	corpus := sensorLikeData(1<<14, 77)
	dict, err := TrainDict(corpus, Config{})
	if err != nil {
		return nil
	}
	zw, err := NewWriter(nil, WithDict(dict))
	if err != nil {
		return nil
	}
	return zw.EncodeAll(corpus[:4096], nil)
}

// fuzzDictFor caches one trained dictionary per Hamming parameter so
// the fuzzer spends its budget on encode/decode, not on re-training.
var fuzzDicts sync.Map // m -> *Dict

func fuzzDictFor(m int) (*Dict, error) {
	if d, ok := fuzzDicts.Load(m); ok {
		return d.(*Dict), nil
	}
	dict, err := TrainDict(sensorLikeData(1<<13, 7), Config{M: m})
	if err != nil {
		return nil, err
	}
	fuzzDicts.Store(m, dict)
	return dict, nil
}

// FuzzEncodeAllDecodeAll: the one-shot path must round-trip every
// input under several configurations, with and without a shared
// dictionary, and must agree byte-for-byte with the streaming writer.
func FuzzEncodeAllDecodeAll(f *testing.F) {
	f.Add([]byte(nil), uint8(8), false)
	f.Add([]byte("one-shot"), uint8(3), true)
	f.Add(bytes.Repeat([]byte{0xAB}, 500), uint8(5), true)
	f.Add(bytes.Repeat([]byte("abcdefgh"), 64), uint8(12), false)
	f.Fuzz(func(t *testing.T, data []byte, m uint8, useDict bool) {
		cfg := Config{M: int(m%13) + 3}
		opts := []Option{WithConfig(cfg)}
		if useDict {
			dict, err := fuzzDictFor(cfg.M)
			if err != nil {
				t.Fatalf("train: %v", err)
			}
			opts = append(opts, WithDict(dict))
		}
		zw, err := NewWriter(nil, opts...)
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		zr, err := NewReader(nil, opts...)
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		comp := zw.EncodeAll(data, nil)
		// Twice, to cover the pooled steady state.
		if again := zw.EncodeAll(data, nil); !bytes.Equal(comp, again) {
			t.Fatal("pooled EncodeAll is not deterministic")
		}
		var buf bytes.Buffer
		sw, err := NewWriter(&buf, opts...)
		if err != nil {
			t.Fatalf("stream writer: %v", err)
		}
		if _, err := sw.Write(data); err != nil {
			t.Fatalf("stream write: %v", err)
		}
		if err := sw.Close(); err != nil {
			t.Fatalf("stream close: %v", err)
		}
		if !bytes.Equal(comp, buf.Bytes()) {
			t.Fatal("EncodeAll differs from the streaming writer")
		}
		back, err := zr.DecodeAll(comp, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip failed for cfg %+v dict=%v", cfg, useDict)
		}
	})
}

// FuzzStreamRoundTrip: every input must compress and decompress back
// to itself under several configurations, through both the serial
// (v1) and sharded parallel (v2) containers.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte(nil), uint8(8), uint8(1), uint8(1))
	f.Add([]byte("hello zipline"), uint8(3), uint8(1), uint8(2))
	f.Add(bytes.Repeat([]byte{0xFF}, 300), uint8(8), uint8(2), uint8(3))
	f.Add(bytes.Repeat([]byte("abcdefgh"), 64), uint8(5), uint8(1), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, m, tt, workers uint8) {
		cfg := Config{M: int(m%13) + 3, T: int(tt%2) + 1}
		comp, err := encodeFresh(data, cfg)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		back, err := decodeFresh(comp)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip failed for cfg %+v", cfg)
		}
		pcomp, err := compressSharded(data, cfg, int(workers%8)+1)
		if err != nil {
			t.Fatalf("parallel compress: %v", err)
		}
		back, err = decodeFresh(pcomp)
		if err != nil {
			t.Fatalf("serial decode of v2: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("v2 round trip failed for cfg %+v", cfg)
		}
	})
}

// decompressParallel drains data through a ParallelReader, always
// releasing its goroutines.
func decompressParallel(data []byte) ([]byte, error) {
	pr, err := NewParallelReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	return io.ReadAll(pr)
}

// FuzzParallelReader: arbitrary input through the sharded decoder
// must never panic, deadlock or leak its workers — and whenever both
// the serial and the parallel decoder accept an input, they must
// produce identical bytes (the decoders share one format authority;
// this keeps them honest), and streaming on four lanes from a
// non-seekable source must match serial streaming exactly: the same
// bytes, or both fail. The corpus seeds the interesting failure
// classes: truncation at every framing boundary, shard numbers that
// exceed the header's count, and forged checkpoint placements.
func FuzzParallelReader(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("not a stream"))
	if comp, err := encodeFresh(bytes.Repeat([]byte("serial v1 stream!"), 50), Config{}); err == nil {
		f.Add(comp)
	}
	if comp, err := compressSharded(bytes.Repeat([]byte{1, 2, 3, 4}, 100), Config{}, 3); err == nil {
		f.Add(comp)
		// Truncations: inside the stream header, the v2 extension, the
		// first group header, a group body, and just short of the
		// trailer.
		for _, cut := range []int{3, 9, 20, len(comp) / 2, len(comp) - 1} {
			if cut >= 0 && cut < len(comp) {
				f.Add(append([]byte(nil), comp[:cut]...))
			}
		}
		// Shard mismatch: the first group's shard byte (stream header
		// 12 B + group header offset 12) bumped past the declared
		// shard count.
		if len(comp) > 25 {
			mut := append([]byte(nil), comp...)
			mut[24] = 0xFF
			f.Add(mut)
		}
		// Declared shard count zeroed and inflated.
		for _, shards := range []byte{0, 255} {
			mut := append([]byte(nil), comp...)
			mut[8] = shards
			f.Add(mut)
		}
	}
	// A multi-segment stream (several groups per shard) and a
	// tail-bearing one.
	if comp, err := compressSharded(sensorLikeData(2*defaultSegmentBytes+5, 9), Config{}, 4); err == nil {
		f.Add(comp)
		f.Add(append([]byte(nil), comp[:len(comp)-7]...))
	}
	for _, seed := range laneSeeds(f) {
		f.Add(seed.comp)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		differentialLanes(t, data)
		pOut, pErr := decompressParallel(data)
		if pErr == nil && len(pOut) > 1<<26 {
			t.Fatalf("implausible expansion: %d bytes", len(pOut))
		}
		sOut, sErr := decodeFresh(data)
		if pErr == nil && sErr != nil {
			// The serial Reader decodes every container version; a
			// stream only the parallel decoder accepts is a format
			// divergence, not a feature.
			t.Fatalf("parallel decoder accepted what the serial decoder rejects: %v", sErr)
		}
		if pErr == nil && sErr == nil && !bytes.Equal(pOut, sOut) {
			t.Fatalf("serial and parallel decoders disagree: %d vs %d bytes", len(sOut), len(pOut))
		}
	})
}

// TestStreamRandomCorruptionNeverPanics flips random bits/bytes in
// valid streams; the decoder must return errors or data, never panic.
func TestStreamRandomCorruptionNeverPanics(t *testing.T) {
	base, err := encodeFresh(bytes.Repeat([]byte("sensor-reading-0123456789abcdef!"), 200), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRand(99)
	for trial := 0; trial < 500; trial++ {
		corrupt := append([]byte(nil), base...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			switch rng.Intn(3) {
			case 0: // flip a bit
				i := rng.Intn(len(corrupt))
				corrupt[i] ^= 1 << uint(rng.Intn(8))
			case 1: // truncate
				corrupt = corrupt[:rng.Intn(len(corrupt)+1)]
			case 2: // splice garbage
				if len(corrupt) > 4 {
					i := rng.Intn(len(corrupt) - 4)
					rng.Read(corrupt[i : i+4])
				}
			}
			if len(corrupt) == 0 {
				break
			}
		}
		// Must not panic; errors and silent wrong data are both
		// acceptable for a format without integrity checksums.
		decodeFresh(corrupt)
	}
}
