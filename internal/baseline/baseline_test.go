package baseline

import (
	"testing"

	"zipline/internal/gd"
	"zipline/internal/trace"
)

func paperCodec(t *testing.T) *gd.Codec {
	t.Helper()
	tr, err := gd.NewHammingM(8)
	if err != nil {
		t.Fatal(err)
	}
	return gd.NewCodec(tr)
}

func TestGzipCompressesRepetitiveTrace(t *testing.T) {
	tr := trace.Sensor(trace.SensorConfig{Records: 100_000, Sensors: 200, Seed: 1})
	n, err := GzipSize(tr)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(n) / float64(tr.TotalBytes())
	if ratio > 0.5 {
		t.Fatalf("gzip ratio = %.3f; sensor data should compress well", ratio)
	}
	if n == 0 {
		t.Fatal("empty output")
	}
}

func TestDedupExactVsGD(t *testing.T) {
	// On glitchy codeword-snapped data GD needs far fewer dictionary
	// entries than exact dedup, and with a dictionary sized for the
	// basis working set, GD compresses while exact dedup thrashes.
	c := paperCodec(t)
	tr := trace.Sensor(trace.SensorConfig{
		Records: 100_000, Sensors: 100, Seed: 3,
		SnapCodec: c, GlitchProb: 0.5,
	})
	gdRes, err := DedupSize(tr, DedupConfig{Codec: c, IDBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	exactRes, err := DedupSize(tr, DedupConfig{IDBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	if gdRes.DistinctKeys*2 > exactRes.DistinctKeys {
		t.Fatalf("GD keys %d vs exact keys %d: ball clustering missing",
			gdRes.DistinctKeys, exactRes.DistinctKeys)
	}
	if gdRes.OutputBytes >= exactRes.OutputBytes {
		t.Fatalf("GD %d B vs exact %d B: GD should win on glitchy data",
			gdRes.OutputBytes, exactRes.OutputBytes)
	}
	if gdRes.Records != 100_000 || gdRes.HitRecords+gdRes.MissRecords != gdRes.Records {
		t.Fatalf("accounting broken: %+v", gdRes)
	}
}

func TestDedupDictionaryThrash(t *testing.T) {
	// A dictionary much smaller than the working set must evict.
	c := paperCodec(t)
	tr := trace.Sensor(trace.SensorConfig{Records: 50_000, Sensors: 200, Seed: 4})
	small, err := DedupSize(tr, DedupConfig{Codec: c, IDBits: 4}) // 16 entries
	if err != nil {
		t.Fatal(err)
	}
	big, err := DedupSize(tr, DedupConfig{Codec: c, IDBits: 15})
	if err != nil {
		t.Fatal(err)
	}
	if small.EvictedKeys == 0 {
		t.Fatal("tiny dictionary never evicted")
	}
	if small.OutputBytes <= big.OutputBytes {
		t.Fatalf("smaller dictionary compressed better: %d <= %d",
			small.OutputBytes, big.OutputBytes)
	}
}

func TestDedupChunkSizeMismatch(t *testing.T) {
	c := paperCodec(t)
	tr := trace.NewTrace("x", 16, make([]byte, 160))
	if _, err := DedupSize(tr, DedupConfig{Codec: c, IDBits: 4}); err == nil {
		t.Fatal("mismatched record size accepted")
	}
}

func TestDedupRatio(t *testing.T) {
	res := DedupResult{OutputBytes: 50}
	if r := res.Ratio(100); r != 0.5 {
		t.Fatalf("ratio = %v", r)
	}
}
