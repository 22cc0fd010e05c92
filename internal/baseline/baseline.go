package baseline

import (
	"bytes"
	"compress/gzip"
	"fmt"

	"zipline/internal/bitvec"
	"zipline/internal/gd"
	"zipline/internal/packet"
	"zipline/internal/trace"
)

// GzipSize compresses the trace's concatenated payloads with gzip at
// its default level (the paper's off-the-shelf invocation) and returns
// the compressed size in bytes. This is the Figure 3 "Gzip" bar: "we
// extract all payloads in a regular file that we compress with the
// gzip compression tool".
func GzipSize(t *trace.Trace) (int, error) {
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	if _, err := w.Write(t.Bytes()); err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	if err := w.Close(); err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	return buf.Len(), nil
}

// DedupConfig parameterises a dictionary-compression run.
type DedupConfig struct {
	// Codec selects the transform. nil means classic exact-match
	// deduplication (the key is the whole chunk).
	Codec *gd.Codec
	// IDBits sizes the dictionary at 2^IDBits LRU slots (default 15,
	// the paper's).
	IDBits int
}

// DedupResult summarises a dictionary compression run at the payload
// level.
type DedupResult struct {
	Records       int
	HitRecords    int // emitted as short references
	MissRecords   int // emitted with full content
	OutputBytes   int
	DistinctKeys  int
	EvictedKeys   int
	DictionaryCap int
}

// Ratio returns output size over input size.
func (r DedupResult) Ratio(inputBytes int) float64 {
	return float64(r.OutputBytes) / float64(inputBytes)
}

// DedupSize runs dictionary compression over the trace. The
// dictionary holds 2^IDBits entries with LRU replacement — the same
// policy as the switch tables, but in-process and with instantaneous
// learning. It is the "static table meets finite memory" model used
// by the dictionary-size and transform ablations. A hit costs the
// codec's aligned type 3 wire size (3 B at m=8, t=15) and a miss its
// aligned type 2 size (33 B at m=8); exact dedup pays ⌈IDBits/8⌉
// reference bytes for a hit and the whole record for a miss.
func DedupSize(t *trace.Trace, cfg DedupConfig) (DedupResult, error) {
	if cfg.IDBits == 0 {
		cfg.IDBits = 15
	}
	if cfg.Codec != nil && cfg.Codec.ChunkBytes() != t.RecordSize {
		return DedupResult{}, fmt.Errorf("baseline: chunk %d != record %d", cfg.Codec.ChunkBytes(), t.RecordSize)
	}
	hitBytes, missBytes := (cfg.IDBits+7)/8, t.RecordSize
	if cfg.Codec != nil {
		f, err := packet.NewFormat(cfg.Codec, cfg.IDBits, true)
		if err != nil {
			return DedupResult{}, err
		}
		hitBytes, missBytes = f.Type3Len(), f.Type2Len()
	}

	dict := gd.NewDictionary(cfg.IDBits)
	res := DedupResult{Records: t.Records(), DictionaryCap: dict.Capacity()}
	seen := make(map[string]struct{})
	var s gd.Split // one basis buffer for the whole walk; Insert copies
	for i := 0; i < t.Records(); i++ {
		rec := t.Record(i)
		var key *bitvec.Vector
		if cfg.Codec == nil {
			key = bitvec.FromBytes(rec, len(rec)*8)
		} else {
			if err := cfg.Codec.SplitChunkInto(rec, &s); err != nil {
				return res, err
			}
			key = s.Basis
		}
		seen[string(key.Bytes())] = struct{}{}
		if _, hit := dict.Lookup(key); hit {
			res.HitRecords++
			res.OutputBytes += hitBytes
		} else {
			res.MissRecords++
			res.OutputBytes += missBytes
			if _, evicted := dict.Insert(key); evicted != nil {
				res.EvictedKeys++
			}
		}
	}
	res.DistinctKeys = len(seen)
	return res, nil
}
