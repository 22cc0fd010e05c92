package trace

import (
	"bytes"
	"testing"

	"zipline/internal/gd"
	"zipline/internal/packet"
	"zipline/internal/pcap"
)

func paperCodec(t *testing.T) *gd.Codec {
	t.Helper()
	tr, err := gd.NewHammingM(8)
	if err != nil {
		t.Fatal(err)
	}
	return gd.NewCodec(tr)
}

func TestSensorGeometryAndDeterminism(t *testing.T) {
	cfg := SensorConfig{Records: 10_000, Sensors: 20, Seed: 3}
	a := Sensor(cfg)
	b := Sensor(cfg)
	if a.RecordSize != 32 {
		t.Fatalf("record size = %d", a.RecordSize)
	}
	if a.Records() != 10_000 {
		t.Fatalf("records = %d", a.Records())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different traces")
	}
	if !bytes.Equal(Sensor(SensorConfig{Records: 1000, Seed: 4}).Bytes()[:32],
		Sensor(SensorConfig{Records: 1000, Seed: 4}).Bytes()[:32]) {
		t.Fatal("determinism broken")
	}
}

// distinctRecords counts distinct record values — the dictionary a
// classic deduplicator would need.
func distinctRecords(tr *Trace) int {
	seen := make(map[string]bool)
	for i := 0; i < tr.Records(); i++ {
		seen[string(tr.Record(i))] = true
	}
	return len(seen)
}

func TestSensorValueRepetition(t *testing.T) {
	// The paper-scale parameters must keep the working set inside
	// the 32,768-base dictionary. Check the scaled-down equivalent:
	// distinct chunks ≈ sensors × (1 + records/sensors × changeProb),
	// far below record count.
	tr := Sensor(SensorConfig{Records: 200_000, Sensors: 200, Seed: 5})
	distinct := distinctRecords(tr)
	if distinct >= 10_000 {
		t.Fatalf("distinct chunks = %d, want working-set ≪ records", distinct)
	}
	if distinct < 200 {
		t.Fatalf("distinct chunks = %d, suspiciously small", distinct)
	}
}

func TestSensorDistinctBasesEqualChunksWithoutSnap(t *testing.T) {
	c := paperCodec(t)
	tr := Sensor(SensorConfig{Records: 20_000, Sensors: 50, Seed: 6})
	bases, err := tr.DistinctBases(c)
	if err != nil {
		t.Fatal(err)
	}
	chunks := distinctRecords(tr)
	// Quantised readings are arbitrary words: GD assigns one basis
	// per distinct value (no ball sharing without snapping).
	if bases != chunks {
		t.Fatalf("bases = %d, chunks = %d", bases, chunks)
	}
}

func TestSensorSnapAndGlitchShareBases(t *testing.T) {
	// With codeword snapping, glitched readings reuse the baseline's
	// basis: many more distinct chunks than bases — GD's clustering
	// advantage over exact deduplication.
	c := paperCodec(t)
	tr := Sensor(SensorConfig{
		Records: 50_000, Sensors: 50, Seed: 7,
		SnapCodec: c, GlitchProb: 0.2,
	})
	bases, err := tr.DistinctBases(c)
	if err != nil {
		t.Fatal(err)
	}
	chunks := distinctRecords(tr)
	if chunks < bases*3 {
		t.Fatalf("chunks %d vs bases %d: glitches did not cluster", chunks, bases)
	}
	// Every snapped baseline is a codeword, so glitched chunks decode
	// back to themselves through the codec (lossless as always).
	for i := 0; i < 1000; i++ {
		rec := tr.Record(i)
		s, err := c.SplitChunk(rec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := c.MergeChunk(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, rec) {
			t.Fatalf("record %d not lossless", i)
		}
	}
}

func TestDNSRecordShape(t *testing.T) {
	tr := DNS(DNSConfig{Queries: 5_000, Domains: 100, Seed: 8})
	if tr.RecordSize != StrippedQueryLen {
		t.Fatalf("record size = %d, want %d", tr.RecordSize, StrippedQueryLen)
	}
	if tr.Records() != 5_000 {
		t.Fatalf("records = %d", tr.Records())
	}
	// Each stripped record carries a catalogue-shaped QNAME behind
	// the ten header bytes the transaction ID leaves: www, eight
	// letters, a three-letter TLD, the root label.
	for i := 0; i < 100; i++ {
		name := tr.Record(i)[10:28]
		if name[0] != 3 || string(name[1:4]) != "www" || name[4] != 8 || name[13] != 3 || name[17] != 0 {
			t.Fatalf("record %d: QNAME % x is not www.<8>.<3>", i, name)
		}
	}
}

func TestDNSPopularitySkew(t *testing.T) {
	tr := DNS(DNSConfig{Queries: 50_000, Domains: 1000, Seed: 9})
	counts := make(map[string]int)
	for i := 0; i < tr.Records(); i++ {
		counts[string(tr.Record(i))]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Zipf head should dominate: the most popular (name,type) pair
	// appears far more often than uniform (uniform would be ≈50000 /
	// ~1300 distinct ≈ 38).
	if max < 500 {
		t.Fatalf("hottest record seen %d times; popularity not skewed", max)
	}
	// And the tail exists.
	if len(counts) < 300 {
		t.Fatalf("only %d distinct records", len(counts))
	}
}

func TestDNSWorkingSetFitsDictionary(t *testing.T) {
	c := paperCodec(t)
	tr := DNS(DNSConfig{Queries: 100_000, Seed: 10})
	bases, err := tr.DistinctBases(c)
	if err != nil {
		t.Fatal(err)
	}
	if bases >= 1<<15 {
		t.Fatalf("bases = %d, exceeds the 15-bit dictionary", bases)
	}
}

func TestBuildQueryWireFormat(t *testing.T) {
	q := BuildQuery(0xABCD, "www.example.com", QTypeA)
	// Header.
	if q[0] != 0xAB || q[1] != 0xCD {
		t.Fatal("txid misplaced")
	}
	if q[2] != 0x01 || q[3] != 0x00 {
		t.Fatal("flags != RD")
	}
	if q[5] != 1 {
		t.Fatal("QDCOUNT != 1")
	}
	if name := string(q[12 : len(q)-4]); name != "\x03www\x07example\x03com\x00" {
		t.Fatalf("QNAME = %q", name)
	}
	// QTYPE/QCLASS trailer.
	if q[len(q)-4] != 0 || q[len(q)-3] != QTypeA || q[len(q)-1] != qClassIN {
		t.Fatalf("trailer = %x", q[len(q)-4:])
	}
	// 34-byte filter: www + 8 + 3 names hit it exactly.
	q2 := BuildQuery(1, "www.abcdefgh.edu", QTypeAAAA)
	if len(q2) != QueryWireLen {
		t.Fatalf("catalogue-shaped query = %d bytes", len(q2))
	}
	if got := len(StripTxID(q2)); got != StrippedQueryLen {
		t.Fatalf("stripped = %d bytes", got)
	}
}

func TestAppendNamePanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AppendName(nil, "www..com")
}

func TestNewTracePanicsOnRaggedData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTrace("x", 32, make([]byte, 33))
}

func TestWritePcapRoundTrip(t *testing.T) {
	tr := Sensor(SensorConfig{Records: 50, Sensors: 5, Seed: 11})
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := packet.MAC{2, 0, 0, 0, 0, 1}
	dst := packet.MAC{2, 0, 0, 0, 0, 2}
	if err := tr.WritePcap(w, src, dst, 1000); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Records(); i++ {
		ts, frame, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if ts != int64(i)*1000 {
			t.Fatalf("packet %d: ts = %d", i, ts)
		}
		hdr, payload, err := packet.ParseHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.EtherType != packet.EtherTypeRaw || hdr.Dst != dst {
			t.Fatalf("packet %d header = %+v", i, hdr)
		}
		if !bytes.Equal(payload, tr.Record(i)) {
			t.Fatalf("packet %d payload mismatch", i)
		}
	}
}
