package zipline

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/iotest"
)

// differentialLanes decodes data by streaming it through the serial
// Reader and through a 4-worker Reader over a source that can neither
// Seek nor ReadAt. The two must agree exactly: the same bytes and
// Stats, or both fail. It reports whether they decoded.
func differentialLanes(t *testing.T, data []byte) bool {
	t.Helper()
	drain := func(workers int, src io.Reader) ([]byte, StreamStats, error) {
		zr, err := NewReader(src, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer zr.Close()
		out, err := io.ReadAll(zr)
		return out, zr.Stats, err
	}
	sOut, sStats, sErr := drain(1, bytes.NewReader(data))
	lOut, lStats, lErr := drain(4, iotest.OneByteReader(bytes.NewReader(data)))
	if (sErr == nil) != (lErr == nil) {
		t.Fatalf("serial err = %v, lanes err = %v: one path accepts what the other rejects", sErr, lErr)
	}
	if sErr != nil {
		return false
	}
	if !bytes.Equal(sOut, lOut) {
		t.Fatalf("serial decoded %d bytes, lanes %d, and they differ", len(sOut), len(lOut))
	}
	if sStats != lStats {
		t.Fatalf("stats diverge: serial %+v lanes %+v", sStats, lStats)
	}
	return true
}

// reshard forges a multi-shard version-4 container no Writer would
// produce out of a single-shard indexed one: the header claims two
// shards, groups alternate between them, and keep reports whether a
// group keeps its checkpoint flag. Offsets do not move, so the footer
// stays true and only the decode itself is on trial.
func reshard(indexed []byte, keep func(group int) bool) []byte {
	out := append([]byte(nil), indexed...)
	out[8] = 2
	for off, g := 12, 0; ; g++ {
		byteLen := binary.LittleEndian.Uint32(out[off:])
		if byteLen == 0 {
			return out
		}
		if binary.LittleEndian.Uint32(out[off+4:])&tailBlockFlag == 0 {
			out[off+12] = byte(g % 2)
			if !keep(g) {
				out[off+13] = 0
			}
		}
		off += 16 + int(byteLen)
	}
}

// laneSeed is one container the lane path must get right beyond what
// a Writer emits — the forged shapes the Reader used to route around.
type laneSeed struct {
	name string
	comp []byte
}

// laneSeeds all decode. They stay small (8 KiB of plaintext) because
// they also seed the fuzz corpora.
func laneSeeds(t testing.TB) []laneSeed {
	data := sensorLikeData(8<<10+5, 78)
	// One group per checkpoint, every one flagged, the raw tail too.
	plain := indexedStream(t, data, 1<<10, nil)
	noFirstFlag := append([]byte(nil), plain...)
	noFirstFlag[12+13] = 0
	// Flushes cut unflagged groups inside the checkpoint segments.
	var flushed bytes.Buffer
	zw, err := NewWriter(&flushed, WithIndex(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 300 {
		if _, err := zw.Write(data[off:min(off+300, len(data))]); err != nil {
			t.Fatal(err)
		}
		if err := zw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return []laneSeed{
		{"single-shard v4, flagged tail", plain},
		{"single-shard v4, first group unflagged", noFirstFlag},
		{"single-shard v4, mid-segment flushes", flushed.Bytes()},
		{"multi-shard v4, every group a checkpoint", reshard(plain, func(int) bool { return true })},
		// Groups 2, 3, 6, 7 lose their flag: each shard's decoder carries
		// its previous group's entries into records encoded from an empty
		// dictionary, so identifiers resolve astray — to the same bytes
		// on every path, which is all a forged stream is owed.
		{"multi-shard v4, checkpoints on alternating shards", reshard(plain, func(g int) bool { return g/2%2 == 0 })},
	}
}

// TestLaneDifferentialForgedStreams runs the lane differential over
// the forged seeds, asserting each one decodes so none of them
// degenerates into an early rejection.
func TestLaneDifferentialForgedStreams(t *testing.T) {
	for _, seed := range laneSeeds(t) {
		t.Run(seed.name, func(t *testing.T) {
			if !differentialLanes(t, seed.comp) {
				t.Fatal("forged stream was rejected on both paths instead of decoded")
			}
		})
	}
}
