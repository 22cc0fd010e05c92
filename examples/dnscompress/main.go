// Dnscompress: compress a day of campus DNS queries, the real-world
// workload of the paper's Figure 3. Query payloads (transaction ID
// stripped, as the paper does) are 32-byte chunks whose bases repeat
// with Zipf name popularity.
//
//	go run ./examples/dnscompress
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"

	"zipline"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	queries, err := buildWorkload(200_000, 2_000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload: %d queries x %d B = %.1f MB\n",
		len(queries)/32, 32, float64(len(queries))/1e6)

	zw, err := zipline.NewWriter(nil, zipline.Config{})
	if err != nil {
		return err
	}
	comp := zw.EncodeAll(queries, nil)
	fmt.Fprintf(w, "zipline: %.1f%% of original size\n",
		100*float64(len(comp))/float64(len(queries)))

	zr, err := zipline.NewReader(nil)
	if err != nil {
		return err
	}
	restored, err := zr.DecodeAll(comp, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "lossless:", bytes.Equal(restored, queries))

	// Chunk-level view: how many distinct bases does the day hold?
	codec := zipline.MustCodec(zipline.Config{})
	bases := map[string]int{}
	for off := 0; off < len(queries); off += 32 {
		s, err := codec.Split(queries[off : off+32])
		if err != nil {
			return err
		}
		bases[string(s.Basis)]++
	}
	fmt.Fprintf(w, "distinct bases: %d (dictionary holds %d)\n", len(bases), 1<<15)

	// Gateway regime: a resolver terminates many short flows, each
	// compressed one-shot. Cold, every flow re-learns the popular
	// names; with a dictionary pre-trained on the first hour, every
	// flow starts warm (the paper's shared-memory deployment).
	firstHour := queries[:len(queries)/24/32*32] // chunk-aligned cut
	dict, err := zipline.TrainDict(firstHour, zipline.Config{})
	if err != nil {
		return err
	}
	cold, err := zipline.NewWriter(nil)
	if err != nil {
		return err
	}
	warm, err := zipline.NewWriter(nil, zipline.WithDict(dict))
	if err != nil {
		return err
	}
	const flowBytes = 50 * 32 // 50 queries per flow
	var coldBytes, warmBytes, flowCount int
	for off := len(firstHour); off+flowBytes <= len(queries); off += flowBytes {
		flow := queries[off : off+flowBytes]
		coldBytes += len(cold.EncodeAll(flow, nil))
		warmBytes += len(warm.EncodeAll(flow, nil))
		flowCount++
	}
	fmt.Fprintf(w, "short flows (%d x %d B): cold %.1f%%, shared dict %.1f%% of original\n",
		flowCount, flowBytes,
		100*float64(coldBytes)/float64(flowCount*flowBytes),
		100*float64(warmBytes)/float64(flowCount*flowBytes))
	if warmBytes >= coldBytes {
		return fmt.Errorf("shared dictionary did not help: %d >= %d", warmBytes, coldBytes)
	}
	return nil
}

// buildWorkload emits n stripped 34-byte DNS queries (32 B each) for
// Zipf-popular names.
func buildWorkload(n, domains int) ([]byte, error) {
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(domains-1))
	names := make([]string, domains)
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := range names {
		var sb strings.Builder
		sb.WriteString("www.")
		for j := 0; j < 8; j++ {
			sb.WriteByte(letters[rng.Intn(26)])
		}
		sb.WriteString(".edu")
		names[i] = sb.String()
	}
	out := make([]byte, 0, n*32)
	for i := 0; i < n; i++ {
		q, err := query(names[zipf.Uint64()])
		if err != nil {
			return nil, err
		}
		out = append(out, q...)
	}
	return out, nil
}

// query builds a wire-format DNS query and strips the 2-byte txid,
// yielding the 32-byte chunk ZipLine sees.
func query(name string) ([]byte, error) {
	q := make([]byte, 10, 32)                 // header minus txid
	binary.BigEndian.PutUint16(q[0:], 0x0100) // RD
	binary.BigEndian.PutUint16(q[2:], 1)      // QDCOUNT
	for _, label := range strings.Split(name, ".") {
		q = append(q, byte(len(label)))
		q = append(q, label...)
	}
	q = append(q, 0)          // root
	q = append(q, 0, 1, 0, 1) // QTYPE A, QCLASS IN
	if len(q) != 32 {
		return nil, fmt.Errorf("query for %s is %d bytes, want 32", name, len(q))
	}
	return q, nil
}
