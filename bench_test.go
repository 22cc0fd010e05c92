// Benchmarks regenerating every table and figure of the paper's
// evaluation, one target per artifact (internal/experiments/doc.go
// lists them). Each benchmark reports its headline quantity through
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced numbers alongside the usual ns/op. Benchmarks
// run scaled-down per iteration; cmd/zipline-bench runs the
// paper-scale versions and prints the full paper-layout tables.
package zipline_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"zipline"
	"zipline/internal/experiments"
	"zipline/internal/gd"
	"zipline/internal/netsim"
	"zipline/internal/trace"
)

// BenchmarkTable1 regenerates the Hamming/CRC parameter table,
// validating every polynomial constructively.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 15 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkTable2 regenerates the Hamming(7,4)/CRC-3 equivalence.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func fig3Dataset(seed int64) *trace.Trace {
	tr, err := gd.NewHammingM(8)
	if err != nil {
		panic(err)
	}
	return trace.Sensor(trace.SensorConfig{
		Records: 60_000, Sensors: 100, Seed: seed,
		SnapCodec: gd.NewCodec(tr), GlitchProb: 0.6,
	})
}

// BenchmarkFigure3Synthetic reproduces the synthetic-dataset group of
// Figure 3 (scaled down) and reports the dynamic-learning ratio
// (paper: 0.11).
func BenchmarkFigure3Synthetic(b *testing.B) {
	ds := fig3Dataset(2)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(ds, experiments.Figure3Config{Seed: int64(i) + 3})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Cases {
			if c.Name == "Dynamic learning" {
				ratio = c.Ratio
			}
		}
	}
	b.ReportMetric(ratio, "dynamic-ratio")
}

// BenchmarkFigure3DNS reproduces the DNS group of Figure 3 (scaled
// down) and reports the dynamic-learning ratio (paper: 0.10).
func BenchmarkFigure3DNS(b *testing.B) {
	ds := trace.DNS(trace.DNSConfig{Queries: 60_000, Domains: 1000, Seed: 4})
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(ds, experiments.Figure3Config{
			Seed: int64(i) + 5, SkipStatic: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Cases {
			if c.Name == "Dynamic learning" {
				ratio = c.Ratio
			}
		}
	}
	b.ReportMetric(ratio, "dynamic-ratio")
}

// BenchmarkFigure4 reproduces the throughput sweep (short window) and
// reports the 9000-byte encode throughput in Gbit/s (paper: ≈line
// rate).
func BenchmarkFigure4(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure4(experiments.Figure4Config{
			WindowNs: 2 * netsim.Millisecond,
			Repeats:  2,
			Seed:     int64(i) + 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Op == experiments.OpEncode && c.FrameSize == 9000 {
				gbps = c.Gbps.Mean()
			}
		}
	}
	b.ReportMetric(gbps, "encode-9000B-Gbps")
}

// BenchmarkFigure5 reproduces the RTT experiment and reports the
// encode RTT in µs (paper: single-digit µs, equal to no-op).
func BenchmarkFigure5(b *testing.B) {
	var rtt float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure5(experiments.Figure5Config{
			Probes: 200, Seed: int64(i) + 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		rtt = cells[1].RTTMicros.Mean() // encode
	}
	b.ReportMetric(rtt, "encode-rtt-us")
}

// BenchmarkLearning reproduces the dynamic-learning delay and reports
// it in milliseconds (paper: 1.77 ± 0.08).
func BenchmarkLearning(b *testing.B) {
	var ms float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Learning(experiments.LearningConfig{
			Repeats: 3, Seed: int64(i) + 11,
		})
		if err != nil {
			b.Fatal(err)
		}
		ms = res.DelayMs.Mean()
	}
	b.ReportMetric(ms, "learning-ms")
}

// BenchmarkAblationPadding reports the aligned-layout no-table ratio
// (paper: 1.03; packed would be 1.00).
func BenchmarkAblationPadding(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationPadding()
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].NoTableRatio
	}
	b.ReportMetric(ratio, "aligned-no-table-ratio")
}

// BenchmarkAblationMSweep sweeps the Hamming parameter and reports
// the m=8 compressed ratio.
func BenchmarkAblationMSweep(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationMSweep(1<<20, 13)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.M == 8 {
				ratio = r.Type3Ratio
			}
		}
	}
	b.ReportMetric(ratio, "m8-type3-ratio")
}

// BenchmarkAblationDictSize reports the compression ratio under an
// 8-bit (256-entry) dictionary, the LRU-thrash regime.
func BenchmarkAblationDictSize(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationDictSize(100_000, 15)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.IDBits == 8 {
				ratio = r.Ratio
			}
		}
	}
	b.ReportMetric(ratio, "idbits8-ratio")
}

// BenchmarkAblationVsDedup reports GD's ratio advantage over exact
// dedup on single-bit-glitch data.
func BenchmarkAblationVsDedup(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationTransforms(60_000, 17)
		if err != nil {
			b.Fatal(err)
		}
		var gdRatio, dedupRatio float64
		for _, r := range rows {
			if r.Dataset == "1-bit glitches" {
				switch r.Transform {
				case "GD hamming(255,247)":
					gdRatio = r.Ratio
				case "dedup (identity)":
					dedupRatio = r.Ratio
				}
			}
		}
		advantage = dedupRatio / gdRatio
	}
	b.ReportMetric(advantage, "gd-advantage-x")
}

// BenchmarkCodecEncode measures the software chunk encode rate on the
// allocation-free scratch path (A6: the paper's switch does this at
// line rate in hardware). Expect 0 allocs/op.
func BenchmarkCodecEncode(b *testing.B) {
	codec := zipline.MustCodec(zipline.Config{})
	chunk := make([]byte, codec.ChunkSize())
	rand.New(rand.NewSource(1)).Read(chunk)
	var s zipline.Split // scratch reused across iterations
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := codec.SplitInto(chunk, &s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecode measures the software chunk decode rate on the
// in-place merge path. Expect 0 allocs/op.
func BenchmarkCodecDecode(b *testing.B) {
	codec := zipline.MustCodec(zipline.Config{})
	chunk := make([]byte, codec.ChunkSize())
	rand.New(rand.NewSource(1)).Read(chunk)
	s, _ := codec.Split(chunk)
	dst := make([]byte, 0, 32)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := codec.Merge(s, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(out, chunk) {
			b.Fatal("mismatch")
		}
	}
}

// benchStreamData builds a compressible multi-segment payload shared
// by the serial/parallel writer benchmarks (glitched repeats of a few
// 32-byte bases, the paper's sensor workload shape); it is the same
// generator the parallel tests use, exposed via export_test.go.
func benchStreamData(size int) []byte {
	return zipline.SensorLikeData(size, 1)
}

// BenchmarkSerialWriter is the single-threaded baseline for
// BenchmarkParallelWriter on the same 8 MiB trace.
func BenchmarkSerialWriter(b *testing.B) {
	data := benchStreamData(8 << 20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zw, err := zipline.NewWriter(io.Discard, zipline.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := zw.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelWriter measures the sharded engine at several
// worker counts on the same trace as BenchmarkSerialWriter.
// Throughput scales with available cores (the ≥4× target at 8 workers
// needs ≥8 free cores).
func BenchmarkParallelWriter(b *testing.B) {
	data := benchStreamData(8 << 20)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pw, err := zipline.NewWriter(io.Discard, zipline.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pw.Write(data); err != nil {
					b.Fatal(err)
				}
				if err := pw.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelReader measures sharded decode throughput.
func BenchmarkParallelReader(b *testing.B) {
	data := benchStreamData(8 << 20)
	var buf bytes.Buffer
	pw, err := zipline.NewWriter(&buf, zipline.WithWorkers(4))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pw.Write(data); err != nil {
		b.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		b.Fatal(err)
	}
	comp := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr, err := zipline.NewReader(bytes.NewReader(comp), zipline.WithWorkers(0))
		if err != nil {
			b.Fatal(err)
		}
		if n, err := io.Copy(io.Discard, pr); err != nil || n != int64(len(data)) {
			b.Fatalf("copy: n=%d err=%v", n, err)
		}
	}
}

// benchDict trains a dictionary covering benchStreamData's bases
// (single-bit glitches land in the same Hamming ball, so a prefix
// covers the whole trace).
func benchDict(b *testing.B) *zipline.Dict {
	b.Helper()
	dict, err := zipline.TrainDict(benchStreamData(1<<16), zipline.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return dict
}

// BenchmarkEncodeAll measures the pooled one-shot encode path with a
// warm shared dictionary — the short-stream gateway hot path. Expect
// 0 allocs/op in steady state.
func BenchmarkEncodeAll(b *testing.B) {
	data := benchStreamData(64 << 10)
	enc, err := zipline.NewWriter(nil, zipline.WithDict(benchDict(b)))
	if err != nil {
		b.Fatal(err)
	}
	var comp []byte
	comp = enc.EncodeAll(data, comp[:0]) // warmup: pool setup is not steady state
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp = enc.EncodeAll(data, comp[:0])
	}
	if len(comp) == 0 {
		b.Fatal("empty output")
	}
}

// BenchmarkDecodeAll measures the pooled one-shot decode path.
func BenchmarkDecodeAll(b *testing.B) {
	data := benchStreamData(64 << 10)
	dict := benchDict(b)
	enc, err := zipline.NewWriter(nil, zipline.WithDict(dict))
	if err != nil {
		b.Fatal(err)
	}
	dec, err := zipline.NewReader(nil, zipline.WithDict(dict))
	if err != nil {
		b.Fatal(err)
	}
	comp := enc.EncodeAll(data, nil)
	var back []byte
	back, err = dec.DecodeAll(comp, back) // warmup: pool setup is not steady state
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		back, err = dec.DecodeAll(comp, back[:0])
		if err != nil || len(back) != len(data) {
			b.Fatalf("decode: %d bytes, %v", len(back), err)
		}
	}
}

// BenchmarkDecodeAllIndexed measures one-shot decode of a v4 indexed
// stream through the footer-driven fan-out path (4 workers). On a
// single-core box this tracks BenchmarkDecodeAll — both share the same
// inner loop — and pulls ahead of it roughly linearly with real cores;
// TestDecodeAllIndexedSpeedup pins the multi-core expectation.
func BenchmarkDecodeAllIndexed(b *testing.B) {
	data := benchStreamData(64 << 10)
	dict := benchDict(b)
	enc, err := zipline.NewWriter(nil, zipline.WithDict(dict), zipline.WithIndex(0))
	if err != nil {
		b.Fatal(err)
	}
	dec, err := zipline.NewReader(nil, zipline.WithDict(dict), zipline.WithWorkers(4))
	if err != nil {
		b.Fatal(err)
	}
	comp := enc.EncodeAll(data, nil)
	var back []byte
	back, err = dec.DecodeAll(comp, back) // warmup: pool setup is not steady state
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		back, err = dec.DecodeAll(comp, back[:0])
		if err != nil || len(back) != len(data) {
			b.Fatalf("decode: %d bytes, %v", len(back), err)
		}
	}
}

// BenchmarkReaderReadAt measures random 4 KiB ReadAt windows over an
// indexed sensor container, the HTTP-range pattern: a checkpoint jump,
// a dictionary replay to the window and a merge of only the window's
// chunks. Expect 0 allocs/op, pinned by TestReadAtAllocs.
func BenchmarkReaderReadAt(b *testing.B) {
	data := benchStreamData(4 << 20)
	dict := benchDict(b)
	enc, err := zipline.NewWriter(nil, zipline.WithDict(dict), zipline.WithIndex(0))
	if err != nil {
		b.Fatal(err)
	}
	zr, err := zipline.NewReader(bytes.NewReader(enc.EncodeAll(data, nil)), zipline.WithDict(dict))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	offs := make([]int64, 1024)
	for i := range offs {
		offs[i] = rng.Int63n(int64(len(data) - 4096 + 1))
	}
	p := make([]byte, 4096)
	if _, err := zr.ReadAt(p, offs[0]); err != nil { // warmup: the index and buffers
		b.Fatal(err)
	}
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := zr.ReadAt(p, offs[i%len(offs)]); n != len(p) || err != nil {
			b.Fatalf("ReadAt: %d bytes, %v", n, err)
		}
	}
}

// BenchmarkWriterReset measures a pooled Writer re-serving streams
// through Reset with a warm shared dictionary. Expect 0 allocs/op —
// pinned by TestWriterResetZeroAllocs.
func BenchmarkWriterReset(b *testing.B) {
	data := benchStreamData(64 << 10)
	zw, err := zipline.NewWriter(io.Discard, zipline.WithDict(benchDict(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zw.Reset(io.Discard)
		if _, err := zw.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
