// Inlinecompression: the full in-network deployment on the paper's
// §7 testbed (internal/experiments' two-server, one-switch fixture) —
// a sender streams sensor payloads through a ZipLine switch whose
// dictionary is learned on the fly by the control plane. Watch the
// traffic switch from uncompressed (type 2) to compressed (type 3) as
// bases are learned, with the paper's ≈1.8 ms control-plane latency.
//
//	go run ./examples/inlinecompression
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"zipline"
	"zipline/internal/experiments"
	"zipline/internal/packet"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A small sensor fleet: 8 devices, values change rarely, so only
	// a handful of bases exist.
	rng := rand.New(rand.NewSource(3))
	temps := make([]uint32, 8)
	for i := range temps {
		temps[i] = 20000 + uint32(rng.Intn(50))*100
	}
	// Generate the day's packets up front so the same traffic can be
	// replayed through the in-network simulation and, below, through a
	// gateway running the stream API.
	const packets = 60_000
	payloads := make([][]byte, packets)
	for i := range payloads {
		id := i % len(temps)
		if rng.Float64() < 0.0005 {
			temps[id] += 100
		}
		p := make([]byte, 32)
		binary.BigEndian.PutUint16(p[0:], uint16(id))
		binary.BigEndian.PutUint32(p[2:], temps[id])
		payloads[i] = p
	}
	payload := func(i int) []byte {
		if i >= packets {
			return nil
		}
		return payloads[i]
	}

	r, rx, err := experiments.InlineLink(11, 200_000, payload)
	if err != nil {
		return err
	}
	t2 := rx.FirstArrival[packet.TypeUncompressed]
	t3 := rx.FirstArrival[packet.TypeCompressed]

	fmt.Fprintf(w, "packets sent        : %d\n", r.Offered.Frames)
	fmt.Fprintf(w, "received            : %d\n", rx.Frames)
	fmt.Fprintf(w, "  type 2 (full basis): %d\n", rx.TypeFrames[packet.TypeUncompressed])
	fmt.Fprintf(w, "  type 3 (compressed): %d\n", rx.TypeFrames[packet.TypeCompressed])
	fmt.Fprintf(w, "bases learned       : %d\n", r.Learning.Learned)
	fmt.Fprintf(w, "payload in          : %.2f MB\n", float64(r.Offered.PayloadBytes)/1e6)
	fmt.Fprintf(w, "payload out         : %.2f MB\n", float64(rx.PayloadBytes)/1e6)
	fmt.Fprintf(w, "compression ratio   : %.3f\n", float64(rx.PayloadBytes)/float64(r.Offered.PayloadBytes))
	fmt.Fprintf(w, "first type 2 at     : %.3f ms\n", float64(t2)/1e6)
	fmt.Fprintf(w, "first type 3 at     : %.3f ms (learning delay ≈ %.2f ms)\n",
		float64(t3)/1e6, float64(t3-t2)/1e6)

	// The same traffic through a gateway instead of a switch pair: a
	// dictionary pre-trained on the first minute of packets, shared by
	// a one-shot encoder — no learning delay, warm from packet one.
	var day []byte
	for _, p := range payloads {
		day = append(day, p...)
	}
	dict, err := zipline.TrainDict(day[:len(day)/60], zipline.Config{})
	if err != nil {
		return err
	}
	enc, err := zipline.NewWriter(nil, zipline.WithDict(dict))
	if err != nil {
		return err
	}
	comp := enc.EncodeAll(day, nil)
	fmt.Fprintf(w, "gateway (shared dict): ratio %.3f, 0 ms learning delay\n",
		float64(len(comp))/float64(len(day)))
	return nil
}
