package zipline_test

import (
	"bytes"
	"fmt"

	"zipline"
)

// Splitting a chunk factors it into a reusable basis and a tiny
// deviation; merging is the exact inverse.
func ExampleCodec_Split() {
	codec := zipline.MustCodec(zipline.Config{}) // paper defaults
	chunk := bytes.Repeat([]byte{0xAB}, codec.ChunkSize())

	s, _ := codec.Split(chunk)
	back, _ := codec.Merge(s, nil)

	fmt.Println("basis bytes:", len(s.Basis))
	fmt.Println("deviation bits:", codec.DeviationBits())
	fmt.Println("lossless:", bytes.Equal(back, chunk))
	// Output:
	// basis bytes: 31
	// deviation bits: 8
	// lossless: true
}

// One-shot use: a Writer with no destination encodes whole buffers
// through EncodeAll. Repetitive data collapses to roughly 3 bytes per
// 32-byte chunk.
func ExampleNewWriter() {
	data := bytes.Repeat([]byte("0123456789abcdef0123456789abcdef"), 1000)
	zw, _ := zipline.NewWriter(nil, zipline.Config{})
	zr, _ := zipline.NewReader(nil)
	comp := zw.EncodeAll(data, nil)
	back, _ := zr.DecodeAll(comp, nil)

	fmt.Println("input:", len(data))
	fmt.Println("under 11%:", len(comp) < len(data)*11/100)
	fmt.Println("lossless:", bytes.Equal(back, data))
	// Output:
	// input: 32000
	// under 11%: true
	// lossless: true
}

// Pooled reuse: one Writer serves many short streams through Reset —
// with a warm shared dictionary the steady state allocates nothing.
func ExampleWriter_Reset() {
	reading := bytes.Repeat([]byte("temp=21.5C rh=40.2% ok padding!!"), 64)
	dict, _ := zipline.TrainDict(reading, zipline.Config{})
	zw, _ := zipline.NewWriter(nil, zipline.WithDict(dict))

	var streams [3]bytes.Buffer
	for i := range streams {
		zw.Reset(&streams[i]) // re-serve: dictionary back to its frozen prefix
		zw.Write(reading)
		zw.Close()
	}

	zr, _ := zipline.NewReader(nil, zipline.WithDict(dict))
	ok := true
	for i := range streams {
		back, err := zr.DecodeAll(streams[i].Bytes(), nil)
		ok = ok && err == nil && bytes.Equal(back, reading)
	}
	fmt.Println("streams served:", len(streams))
	fmt.Println("all lossless:", ok)
	fmt.Println("warm streams compressed:", streams[0].Len() < len(reading)/4)
	// Output:
	// streams served: 3
	// all lossless: true
	// warm streams compressed: true
}

// Shared-dict fan-out: a fleet of concurrent one-shot encoders serves
// short flows from one pre-trained dictionary — every goroutine hits
// the warm bases from its first chunk.
func ExampleWriter_EncodeAll() {
	flow := bytes.Repeat([]byte("sensor-7:pressure=1013.25hPa !!!"), 32)
	dict, _ := zipline.TrainDict(flow, zipline.Config{})
	enc, _ := zipline.NewWriter(nil, zipline.WithDict(dict)) // EncodeAll-only
	dec, _ := zipline.NewReader(nil, zipline.WithDict(dict))

	results := make(chan bool, 4)
	for g := 0; g < 4; g++ {
		go func() {
			comp := enc.EncodeAll(flow, nil) // concurrency-safe
			back, err := dec.DecodeAll(comp, nil)
			results <- err == nil && bytes.Equal(back, flow)
		}()
	}
	ok := true
	for g := 0; g < 4; g++ {
		ok = ok && <-results
	}
	fmt.Println("concurrent flows lossless:", ok)
	// Output:
	// concurrent flows lossless: true
}
