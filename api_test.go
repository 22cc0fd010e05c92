package zipline

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// --- Unified constructor / options -----------------------------------------

// TestUnifiedWriterWorkersOption: one Writer type serves both paths,
// selected by WithWorkers; every reader configuration decodes both.
func TestUnifiedWriterWorkersOption(t *testing.T) {
	data := sensorLikeData(2*defaultSegmentBytes+777, 51)
	for _, workers := range []int{1, 2, 5} {
		var buf bytes.Buffer
		zw, err := NewWriter(&buf, WithWorkers(workers), WithConfig(Config{}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		wantVersion := byte(streamV1)
		if workers > 1 {
			wantVersion = streamV2
		}
		if got := buf.Bytes()[4]; got != wantVersion {
			t.Fatalf("workers=%d: container version %d, want %d", workers, got, wantVersion)
		}
		back, err := decodeFresh(buf.Bytes())
		if err != nil {
			t.Fatalf("workers=%d: serial decode: %v", workers, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("workers=%d: round trip failed", workers)
		}
		zr, err := NewReader(bytes.NewReader(buf.Bytes()), WithWorkers(0))
		if err != nil {
			t.Fatal(err)
		}
		back, err = io.ReadAll(zr)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("workers=%d: parallel decode: %v", workers, err)
		}
	}
}

// TestConfigActsAsOption pins the compatibility contract: the
// pre-options call forms NewWriter(w, cfg) / positional Config still
// select the configuration.
func TestConfigActsAsOption(t *testing.T) {
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, Config{M: 5, IDBits: 9})
	if err != nil {
		t.Fatal(err)
	}
	if zw.codec.cfg.M != 5 || zw.codec.cfg.IDBits != 9 {
		t.Fatalf("positional Config ignored: %+v", zw.codec.cfg)
	}
	if _, err := zw.Write([]byte("positional config")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[5] != 5 || buf.Bytes()[6] != 9 {
		t.Fatalf("header cfg = m%d id%d", buf.Bytes()[5], buf.Bytes()[6])
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := NewWriter(io.Discard, WithWorkers(-1)); err == nil {
		t.Fatal("negative workers accepted")
	}
	dict := trainTestDict(t, Config{})
	if _, err := NewWriter(io.Discard, WithConfig(Config{M: 5}), WithDict(dict)); err == nil {
		t.Fatal("conflicting WithConfig+WithDict accepted")
	}
	// Matching explicit config is fine, in either order.
	if _, err := NewWriter(io.Discard, WithDict(dict), WithConfig(Config{})); err != nil {
		t.Fatal(err)
	}
	// Dict fixes the configuration when none is given.
	zw, err := NewWriter(io.Discard, WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	if zw.codec.cfg != dict.Config() {
		t.Fatalf("writer cfg %+v != dict cfg %+v", zw.codec.cfg, dict.Config())
	}
}

// TestDeprecatedWrappersAreTheUnifiedTypes: the pre-options
// constructors return the same types, so pooled helpers written
// against either keep working.
func TestDeprecatedWrappersAreTheUnifiedTypes(t *testing.T) {
	pw, err := NewParallelWriter(io.Discard, Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var _ *Writer = pw
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	comp, err := compressSharded([]byte("wrapper"), Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewParallelReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	var _ *Reader = pr
	defer pr.Close()
	back, err := io.ReadAll(pr)
	if err != nil || string(back) != "wrapper" {
		t.Fatalf("wrapper round trip: %q, %v", back, err)
	}
}

// TestNewParallelWriterKeepsEagerHeader pins the deprecated wrapper's
// original contract: the container header is written at construction
// and a failing destination surfaces there, not at the first Write.
func TestNewParallelWriterKeepsEagerHeader(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewParallelWriter(&buf, Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 12 || buf.Bytes()[4] != streamV2 || buf.Bytes()[8] != 3 {
		t.Fatalf("header not written eagerly: %d bytes %x", buf.Len(), buf.Bytes())
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeFresh(buf.Bytes()); err != nil {
		t.Fatalf("empty eager-header stream: %v", err)
	}
	wantErr := errors.New("disk full")
	if _, err := NewParallelWriter(&failAfterWriter{n: 0, err: wantErr}, Config{}, 2); !errors.Is(err, wantErr) {
		t.Fatalf("constructor error = %v, want %v", err, wantErr)
	}
}

// --- Close/error-path audit -------------------------------------------------

// TestSerialWriterDoubleCloseReturnsFirstError pins the audit fix:
// a second Close must repeat the first flush error, not report
// success on a truncated stream.
func TestSerialWriterDoubleCloseReturnsFirstError(t *testing.T) {
	wantErr := errors.New("disk full")
	// The 8-byte v1 header fits; the block flush at Close fails.
	zw, err := NewWriter(&failAfterWriter{n: 8, err: wantErr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("first Close = %v, want %v", err, wantErr)
	}
	for i := 0; i < 2; i++ {
		if err := zw.Close(); !errors.Is(err, wantErr) {
			t.Fatalf("repeat Close = %v, want the first error", err)
		}
	}
}

// TestParallelWriterDoubleCloseReturnsFirstError: same contract on
// the sharded path, where the error is recorded by the collector.
func TestParallelWriterDoubleCloseReturnsFirstError(t *testing.T) {
	wantErr := errors.New("disk full")
	// The 12-byte v2 header fits; the first group write fails.
	zw, err := NewWriter(&failAfterWriter{n: 12, err: wantErr}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("first Close = %v, want %v", err, wantErr)
	}
	for i := 0; i < 2; i++ {
		if err := zw.Close(); !errors.Is(err, wantErr) {
			t.Fatalf("repeat Close = %v, want the first error", err)
		}
	}
}

// TestWriterDoubleCloseAfterSuccessStaysNil: the success side of
// idempotence, for both engines.
func TestWriterDoubleCloseAfterSuccessStaysNil(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var buf bytes.Buffer
		zw, err := NewWriter(&buf, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write([]byte("idempotent")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := zw.Close(); err != nil {
				t.Fatalf("workers=%d Close #%d: %v", workers, i+1, err)
			}
		}
		if back, err := decodeFresh(buf.Bytes()); err != nil || string(back) != "idempotent" {
			t.Fatalf("workers=%d: %q, %v", workers, back, err)
		}
	}
}

// --- Pooled Reset ------------------------------------------------------------

func TestWriterResetServesNewStreams(t *testing.T) {
	for _, workers := range []int{1, 4} {
		zw, err := NewWriter(nil, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			data := sensorLikeData(defaultSegmentBytes+round*1000+13, int64(round+70))
			var buf bytes.Buffer
			zw.Reset(&buf)
			if _, err := zw.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			back, err := decodeFresh(buf.Bytes())
			if err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, round, err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("workers=%d round %d: round trip failed", workers, round)
			}
			// Each stream must be self-contained: identical to a fresh
			// writer's output, so pooling can never leak dictionary
			// state between streams.
			fresh, err := NewWriter(nil, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			var fbuf bytes.Buffer
			fresh.Reset(&fbuf)
			fresh.Write(data)
			fresh.Close()
			if !bytes.Equal(buf.Bytes(), fbuf.Bytes()) {
				t.Fatalf("workers=%d round %d: pooled stream differs from fresh stream", workers, round)
			}
		}
	}
}

// TestWriterResetZeroAllocs pins the acceptance criterion: a pooled
// Reset + re-encode cycle with a warm shared dictionary allocates
// nothing in steady state — on hits, and on the all-miss path, where
// every chunk is stored in the slab dictionary.
func TestWriterResetZeroAllocs(t *testing.T) {
	corpus := sensorLikeData(1<<16, 81)
	noise := make([]byte, 1<<15)
	rand.New(rand.NewSource(82)).Read(noise)
	dict := trainTestDict(t, Config{})
	zw, err := NewWriter(io.Discard, WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	// All-hit payloads (every basis is frozen in the dict): one
	// chunk-aligned, one ending in a raw tail group like nearly every
	// HTTP body does. Then random bytes: all misses.
	for i, payload := range [][]byte{corpus[:1<<15], corpus[:1<<15+7], noise} {
		cycle := func() {
			zw.Reset(io.Discard)
			if _, err := zw.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warmup: scratch growth is amortised setup, not steady state
		if i < 2 && zw.Stats.Misses != 0 {
			t.Fatalf("warm dictionary missed %d chunks — payload not covered by dict", zw.Stats.Misses)
		} else if i == 2 && zw.Stats.Hits != 0 {
			t.Fatalf("random payload hit %d chunks", zw.Stats.Hits)
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Fatalf("pooled Reset+encode of %d bytes = %v allocs/op, want 0", len(payload), allocs)
		}
		// The one-shot path into a pre-sized destination is the same
		// engine behind a pool.
		dst := make([]byte, 0, len(payload)+len(payload)/16) // misses expand
		oneShot := func() { dst = zw.EncodeAll(payload, dst[:0]) }
		oneShot()
		if raceEnabled {
			continue // sync.Pool drops puts under -race by design
		}
		if allocs := testing.AllocsPerRun(100, oneShot); allocs != 0 {
			t.Fatalf("EncodeAll of %d bytes into a pre-sized dst = %v allocs/op, want 0", len(payload), allocs)
		}
	}
}

func TestReaderResetReusesDecoders(t *testing.T) {
	data1 := sensorLikeData(100_000, 91)
	data2 := sensorLikeData(60_000, 92)
	comp1, _ := encodeFresh(data1, Config{})
	comp2, _ := encodeFresh(data2, Config{})
	zr, err := NewReader(bytes.NewReader(comp1))
	if err != nil {
		t.Fatal(err)
	}
	back, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(back, data1) {
		t.Fatalf("first stream: %v", err)
	}
	decs := zr.decs
	zr.Reset(bytes.NewReader(comp2))
	if zr.Stats != (StreamStats{}) {
		t.Fatalf("Reset kept stats %+v", zr.Stats)
	}
	back, err = io.ReadAll(zr)
	if err != nil || !bytes.Equal(back, data2) {
		t.Fatalf("second stream: %v", err)
	}
	if len(zr.decs) != len(decs) || (decs[0] != nil && zr.decs[0] != decs[0]) {
		t.Fatal("Reset rebuilt decoders for a matching stream header")
	}
	// A different configuration must rebuild them.
	comp3, _ := encodeFresh(data2, Config{M: 5})
	zr.Reset(bytes.NewReader(comp3))
	back, err = io.ReadAll(zr)
	if err != nil || !bytes.Equal(back, data2) {
		t.Fatalf("third stream: %v", err)
	}
	if zr.codec.cfg.M != 5 {
		t.Fatalf("codec not rebuilt: %+v", zr.codec.cfg)
	}
}

// --- EncodeAll / DecodeAll ---------------------------------------------------

func TestEncodeAllMatchesStreamingOutput(t *testing.T) {
	data := sensorLikeData(70_000, 101)
	zw, err := NewWriter(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeFresh(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := zw.EncodeAll(data, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeAll differs from streaming output (%d vs %d bytes)", len(got), len(want))
	}
	// dst-append semantics preserve the prefix.
	prefix := []byte("prefix:")
	full := zw.EncodeAll(data, append([]byte(nil), prefix...))
	if !bytes.HasPrefix(full, prefix) || !bytes.Equal(full[len(prefix):], want) {
		t.Fatal("EncodeAll broke dst-append semantics")
	}
	zr, err := NewReader(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := zr.DecodeAll(got, []byte("out:"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(back, []byte("out:")) || !bytes.Equal(back[4:], data) {
		t.Fatal("DecodeAll round trip failed")
	}
	// Errors leave dst unextended.
	dst := []byte("keep")
	if out, err := zr.DecodeAll([]byte("not a stream"), dst); err == nil || !bytes.Equal(out, dst) {
		t.Fatalf("DecodeAll error path: out=%q err=%v", out, err)
	}
}

func TestEncodeAllOnParallelWriterStaysSerial(t *testing.T) {
	data := sensorLikeData(40_000, 111)
	zw, err := NewWriter(nil, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	comp := zw.EncodeAll(data, nil)
	if comp[4] != streamV1 {
		t.Fatalf("one-shot container version %d, want %d", comp[4], streamV1)
	}
	back, err := decodeFresh(comp)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestDecodeAllReadsShardedStreams(t *testing.T) {
	data := sensorLikeData(3*defaultSegmentBytes+17, 121)
	comp, err := compressSharded(data, Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := NewReader(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := zr.DecodeAll(comp, nil)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("sharded DecodeAll: %v", err)
	}
}

// --- Shared pre-trained dictionaries ----------------------------------------

// trainTestDict trains a Dict covering the sensorLikeData generator's
// bases for a seed-81 corpus.
func trainTestDict(t testing.TB, cfg Config) *Dict {
	t.Helper()
	dict, err := TrainDict(sensorLikeData(1<<16, 81), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dict
}

func TestDictTrainSerializeLoad(t *testing.T) {
	dict := trainTestDict(t, Config{})
	if dict.Len() == 0 || dict.Len() > 1<<14 {
		t.Fatalf("dict holds %d bases", dict.Len())
	}
	raw := dict.Bytes()
	loaded, err := LoadDict(raw)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ID() != dict.ID() || loaded.Len() != dict.Len() || loaded.Config() != dict.Config() {
		t.Fatalf("loaded dict %#08x/%d != trained %#08x/%d", loaded.ID(), loaded.Len(), dict.ID(), dict.Len())
	}
	// Training is deterministic.
	again := trainTestDict(t, Config{})
	if again.ID() != dict.ID() {
		t.Fatal("training is not deterministic")
	}
	// Corrupt dictionaries are rejected.
	for name, mut := range map[string][]byte{
		"truncated":   raw[:len(raw)-5],
		"bad magic":   append([]byte("NOPE"), raw[4:]...),
		"bad version": append(append([]byte{}, raw[:4]...), append([]byte{9}, raw[5:]...)...),
		"bad count": func() []byte {
			c := append([]byte(nil), raw...)
			c[8], c[9], c[10], c[11] = 0xFF, 0xFF, 0xFF, 0xFF
			return c
		}(),
		"empty": {},
	} {
		if _, err := LoadDict(mut); err == nil {
			t.Errorf("%s: loaded successfully", name)
		}
	}
	if _, err := TrainDict([]byte("short"), Config{}); err == nil {
		t.Error("sub-chunk corpus accepted")
	}
}

// TestDictStreamRoundTripAndRejection pins the acceptance criterion:
// a dict-framed stream round-trips through readers holding the dict
// and is rejected cleanly by readers lacking (or holding the wrong)
// dict.
func TestDictStreamRoundTripAndRejection(t *testing.T) {
	dict := trainTestDict(t, Config{})
	data := sensorLikeData(2*defaultSegmentBytes+333, 82)
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		zw, err := NewWriter(&buf, WithDict(dict), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		comp := buf.Bytes()
		if comp[4] != streamV3 {
			t.Fatalf("workers=%d: version %d, want %d", workers, comp[4], streamV3)
		}
		// With the dict: serial and parallel readers, plus DecodeAll.
		for _, readWorkers := range []int{1, 3} {
			zr, err := NewReader(bytes.NewReader(comp), WithDict(dict), WithWorkers(readWorkers))
			if err != nil {
				t.Fatal(err)
			}
			back, err := io.ReadAll(zr)
			zr.Close()
			if err != nil || !bytes.Equal(back, data) {
				t.Fatalf("workers=%d read=%d: %v", workers, readWorkers, err)
			}
		}
		zr, _ := NewReader(nil, WithDict(dict))
		if back, err := zr.DecodeAll(comp, nil); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("workers=%d DecodeAll: %v", workers, err)
		}
		// Without the dict: clean typed rejection.
		if _, err := decodeFresh(comp); !errors.Is(err, ErrDictRequired) {
			t.Fatalf("workers=%d: dictless decode = %v, want ErrDictRequired", workers, err)
		}
		// With a different dict: mismatch.
		other, err := TrainDict(sensorLikeData(1<<15, 4242), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if other.ID() == dict.ID() {
			t.Fatal("distinct corpora trained identical dicts")
		}
		zr2, _ := NewReader(bytes.NewReader(comp), WithDict(other))
		if _, err := io.ReadAll(zr2); !errors.Is(err, ErrDictMismatch) {
			t.Fatalf("workers=%d: wrong-dict decode = %v, want ErrDictMismatch", workers, err)
		}
	}
}

// TestDictImprovesColdStart: the warm-dictionary regime of the paper —
// with the shared dict, the first occurrence of every hot basis is
// already a hit, so a short stream compresses like a long-lived one.
func TestDictImprovesColdStart(t *testing.T) {
	dict := trainTestDict(t, Config{})
	data := sensorLikeData(1<<12, 81) // short stream, bases covered by dict
	zwCold, _ := NewWriter(nil)
	zwWarm, _ := NewWriter(nil, WithDict(dict))
	cold := zwCold.EncodeAll(data, nil)
	warm := zwWarm.EncodeAll(data, nil)
	if len(warm) >= len(cold) {
		t.Fatalf("warm dict did not help: warm %d ≥ cold %d bytes", len(warm), len(cold))
	}
}

// TestSharedDictConcurrentEncodeAll is the -race hammer of the
// satellite list: one Dict, one Writer and one Reader shared by 8
// goroutines doing independent EncodeAll/DecodeAll round trips.
func TestSharedDictConcurrentEncodeAll(t *testing.T) {
	dict := trainTestDict(t, Config{})
	zw, err := NewWriter(nil, WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := NewReader(nil, WithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var comp, back []byte
			for i := 0; i < 30; i++ {
				data := sensorLikeData(4096+int(seed)*64, seed*100+int64(i))
				comp = zw.EncodeAll(data, comp[:0])
				var err error
				back, err = zr.DecodeAll(comp, back[:0])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", seed, i, err)
					return
				}
				if !bytes.Equal(back, data) {
					errs <- fmt.Errorf("goroutine %d iter %d: round trip mismatch", seed, i)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
