package zipline

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// Differential coverage of the four writer×reader pairings. The
// serial Writer→Reader path is the reference; every other
// combination — serial Writer→ParallelReader, ParallelWriter→serial
// Reader, ParallelWriter→ParallelReader — must reproduce the input
// byte for byte across shard counts 1–8 and input shapes from empty
// through multi-segment with a sub-chunk tail.

// decodeSerial drains a stream through the serial Reader.
func decodeSerial(t *testing.T, comp []byte) []byte {
	t.Helper()
	zr, err := NewReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// decodeParallel drains a stream through the ParallelReader.
func decodeParallel(t *testing.T, comp []byte) []byte {
	t.Helper()
	pr, err := NewParallelReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	out, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDifferentialWriterReaderPairings(t *testing.T) {
	cfgs := []Config{{}, {M: 5, IDBits: 9}}
	sizes := []int{0, 1, 31, 32, 33, 1000, 4096, defaultSegmentBytes, defaultSegmentBytes + 17, 2*defaultSegmentBytes + 5}
	for ci, cfg := range cfgs {
		for _, size := range sizes {
			data := sensorLikeData(size, int64(1000+size+ci))
			t.Run(fmt.Sprintf("cfg%d/size%d", ci, size), func(t *testing.T) {
				// Reference: serial writer, serial reader.
				serialComp, err := encodeFresh(data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := decodeSerial(t, serialComp)
				if !bytes.Equal(ref, data) {
					t.Fatal("serial reference path corrupted the input")
				}

				// Serial writer → ParallelReader.
				if got := decodeParallel(t, serialComp); !bytes.Equal(got, ref) {
					t.Fatalf("serial→ParallelReader differs from serial path (%d vs %d bytes)", len(got), len(ref))
				}

				for workers := 1; workers <= 8; workers++ {
					parComp, err := compressSharded(data, cfg, workers)
					if err != nil {
						t.Fatalf("workers %d: %v", workers, err)
					}
					// ParallelWriter → serial Reader.
					if got := decodeSerial(t, parComp); !bytes.Equal(got, ref) {
						t.Fatalf("Parallel(%d)→Reader differs from serial path", workers)
					}
					// ParallelWriter → ParallelReader.
					if got := decodeParallel(t, parComp); !bytes.Equal(got, ref) {
						t.Fatalf("Parallel(%d)→ParallelReader differs from serial path", workers)
					}
				}
			})
		}
	}
}

// TestDifferentialRandomInputs: purely random (incompressible) inputs
// through every pairing — the dictionary never hits, so the record
// mix is all misses, the opposite regime of the sensor-like data.
func TestDifferentialRandomInputs(t *testing.T) {
	rng := newTestRand(4242)
	for trial := 0; trial < 20; trial++ {
		size := rng.Intn(3 * defaultSegmentBytes)
		data := make([]byte, size)
		rng.Read(data)
		workers := 1 + rng.Intn(8)

		serialComp, err := encodeFresh(data, Config{})
		if err != nil {
			t.Fatal(err)
		}
		parComp, err := compressSharded(data, Config{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		ref := decodeSerial(t, serialComp)
		if !bytes.Equal(ref, data) {
			t.Fatalf("trial %d: serial path corrupted input", trial)
		}
		for name, got := range map[string][]byte{
			"serial→parallel":   decodeParallel(t, serialComp),
			"parallel→serial":   decodeSerial(t, parComp),
			"parallel→parallel": decodeParallel(t, parComp),
		} {
			if !bytes.Equal(got, ref) {
				t.Fatalf("trial %d (%d bytes, %d workers): %s differs from serial path",
					trial, size, workers, name)
			}
		}
	}
}
