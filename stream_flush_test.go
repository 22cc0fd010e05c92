package zipline

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// TestWriterFlushStreams pins the Flush contract: after a flush, a
// decoder holding only the bytes written so far recovers every
// complete chunk, while a trailing partial chunk stays pending until
// Close emits it as the tail.
func TestWriterFlushStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 3*32+5) // three chunks plus a 5-byte partial
	rng.Read(data)

	var buf bytes.Buffer
	zw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Flush(); err != nil {
		t.Fatal(err)
	}

	// The flushed prefix decodes the three complete chunks, then hits
	// the cut (no trailer yet) — never a clean EOF.
	zr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, _ := io.ReadFull(zr, got)
	if n != 3*32 {
		t.Fatalf("flushed prefix yielded %d bytes, want %d", n, 3*32)
	}
	if !bytes.Equal(got[:n], data[:n]) {
		t.Fatalf("flushed prefix decoded wrong bytes")
	}

	// A second flush with nothing buffered writes nothing.
	before := buf.Len()
	if err := zw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != before {
		t.Fatalf("empty flush wrote %d bytes", buf.Len()-before)
	}

	// Close emits the pending partial as the tail; the whole stream
	// round-trips.
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := decodeFresh(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("round trip mismatch after flush")
	}
}

// TestWriterFlushBeforeInput forces the header out so a peer can
// validate the stream before the first payload byte.
func TestWriterFlushBeforeInput(t *testing.T) {
	var buf bytes.Buffer
	zw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := zw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8 {
		t.Fatalf("header flush wrote %d bytes, want 8", buf.Len())
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if back, err := decodeFresh(buf.Bytes()); err != nil || len(back) != 0 {
		t.Fatalf("empty flushed stream: %d bytes, err %v", len(back), err)
	}
}

// TestWriterFlushIndexed checks that flush-created groups are recorded
// in the trailing index like any other: the stream still seeks.
func TestWriterFlushIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 4096)
	rng.Read(data)

	var buf bytes.Buffer
	zw, err := NewWriter(&buf, WithIndex(1024))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 100 {
		end := off + 100
		if end > len(data) {
			end = len(data)
		}
		if _, err := zw.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
		if err := zw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	zr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if _, err := zr.Seek(3000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(zr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[3000:3512]) {
		t.Fatalf("seek after flushes decoded wrong bytes")
	}
}

// TestWriterFlushErrors pins the refusal paths: after Close, without a
// destination, and on the sharded engine.
func TestWriterFlushErrors(t *testing.T) {
	zw, err := NewWriter(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Flush(); err == nil {
		t.Fatal("Flush after Close succeeded")
	}

	if zw, err = NewWriter(nil); err != nil {
		t.Fatal(err)
	}
	if err := zw.Flush(); err == nil {
		t.Fatal("Flush without destination succeeded")
	}

	pw, err := NewWriter(&bytes.Buffer{}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Flush(); err == nil {
		t.Fatal("Flush on sharded writer succeeded")
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
}
