// Sensorstream: the IoT-gateway scenario that motivates GD — a fleet
// of sensors reports fixed-size readings whose values repeat heavily
// and occasionally suffer single-bit corruption. ZipLine's streaming
// compressor absorbs the corruption inside the Hamming deviation;
// gzip has to spend bytes on every flipped bit.
//
//	go run ./examples/sensorstream
package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"zipline"
)

const (
	sensors  = 64
	readings = 50_000
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	data, err := generate()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sensor log: %d readings x 32 B = %.1f MB\n",
		readings, float64(len(data))/1e6)

	// ZipLine stream compression.
	var zbuf bytes.Buffer
	zw, err := zipline.NewWriter(&zbuf, zipline.Config{})
	if err != nil {
		return err
	}
	if _, err := zw.Write(data); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "zipline: %8d bytes (ratio %.3f)  chunks=%d hits=%d misses=%d\n",
		zbuf.Len(), float64(zbuf.Len())/float64(len(data)),
		zw.Stats.Chunks, zw.Stats.Hits, zw.Stats.Misses)

	// gzip for comparison.
	var gbuf bytes.Buffer
	gw := gzip.NewWriter(&gbuf)
	if _, err := gw.Write(data); err != nil {
		return err
	}
	if err := gw.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "gzip   : %8d bytes (ratio %.3f)\n",
		gbuf.Len(), float64(gbuf.Len())/float64(len(data)))

	// Verify losslessness.
	zr, err := zipline.NewReader(nil)
	if err != nil {
		return err
	}
	restored, err := zr.DecodeAll(zbuf.Bytes(), nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(restored, data) {
		return fmt.Errorf("round trip failed")
	}
	fmt.Fprintln(w, "round trip: lossless ✓")

	// Gateway regime: each sensor uploads its own short stream. One
	// pooled Writer serves the whole fleet through Reset; pre-training
	// a shared dictionary on yesterday's readings removes the per-
	// stream cold start (every upload's bases are already hits).
	dict, err := zipline.TrainDict(data[:len(data)/10], zipline.Config{})
	if err != nil {
		return err
	}
	perSensor := len(data) / sensors / 32 * 32
	uploads := func(zw *zipline.Writer) (total int, misses uint64, err error) {
		for s := 0; s < sensors; s++ {
			var buf bytes.Buffer
			zw.Reset(&buf) // pooled reuse: no per-stream allocation
			if _, err := zw.Write(data[s*perSensor : (s+1)*perSensor]); err != nil {
				return 0, 0, err
			}
			if err := zw.Close(); err != nil {
				return 0, 0, err
			}
			total += buf.Len()
			misses += zw.Stats.Misses
		}
		return total, misses, nil
	}
	cold, err := zipline.NewWriter(nil)
	if err != nil {
		return err
	}
	warm, err := zipline.NewWriter(nil, zipline.WithDict(dict))
	if err != nil {
		return err
	}
	coldBytes, coldMisses, err := uploads(cold)
	if err != nil {
		return err
	}
	warmBytes, warmMisses, err := uploads(warm)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "per-sensor uploads (%d x %d B): cold %d B (%d misses), shared dict %d B (%d misses)\n",
		sensors, perSensor, coldBytes, coldMisses, warmBytes, warmMisses)
	if warmMisses >= coldMisses {
		return fmt.Errorf("shared dictionary did not reduce misses: %d >= %d", warmMisses, coldMisses)
	}
	return nil
}

// generate builds a day of readings: per-sensor quantised random
// walks, 1-in-2 readings hit by a single-bit transmission glitch.
func generate() ([]byte, error) {
	rng := rand.New(rand.NewSource(42))
	type state struct{ temp, rh int32 }
	fleet := make([]state, sensors)
	for i := range fleet {
		fleet[i] = state{temp: 20000 + int32(rng.Intn(40))*250, rh: 40000 + int32(rng.Intn(40))*500}
	}
	codec := zipline.MustCodec(zipline.Config{})
	out := make([]byte, 0, readings*32)
	rec := make([]byte, 32)
	for i := 0; i < readings; i++ {
		id := i % sensors
		st := &fleet[id]
		if rng.Float64() < 0.01 {
			st.temp += int32(rng.Intn(3)-1) * 250
		}
		binary.BigEndian.PutUint16(rec[0:], uint16(id))
		binary.BigEndian.PutUint32(rec[2:], uint32(st.temp))
		binary.BigEndian.PutUint32(rec[6:], uint32(st.rh))
		for j := 10; j < 32; j++ {
			rec[j] = 0
		}
		// Quantise onto the GD grid, then model a transmission
		// glitch: flip one random bit of every reading. GD maps the
		// glitched reading to the same basis (Hamming ball), so it
		// still costs only ~3 bytes; gzip pays for each broken match.
		if err := snap(codec, rec); err != nil {
			return nil, err
		}
		bit := rng.Intn(256)
		rec[bit/8] ^= 1 << (7 - uint(bit%8))
		out = append(out, rec...)
	}
	return out, nil
}

// snap forces the record onto a GD codeword (deviation zero).
func snap(codec *zipline.Codec, rec []byte) error {
	s, err := codec.Split(rec)
	if err != nil {
		return err
	}
	s.Deviation = 0
	snapped, err := codec.Merge(s, rec[:0:len(rec)])
	if err != nil {
		return err
	}
	copy(rec, snapped)
	return nil
}
