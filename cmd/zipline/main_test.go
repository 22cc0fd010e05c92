package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTripSerial(t *testing.T) {
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(data)

	var comp, back, errw bytes.Buffer
	if code := run([]string{"-c"}, bytes.NewReader(data), &comp, &errw); code != 0 {
		t.Fatalf("compress exit %d: %s", code, errw.String())
	}
	if code := run([]string{"-d"}, bytes.NewReader(comp.Bytes()), &back, &errw); code != 0 {
		t.Fatalf("decompress exit %d: %s", code, errw.String())
	}
	if !bytes.Equal(back.Bytes(), data) {
		t.Fatal("round trip failed")
	}
}

func TestRoundTripParallel(t *testing.T) {
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(2)).Read(chunk)
	data := append(bytes.Repeat(chunk, 20_000), 0xEE) // compressible + tail byte

	var comp, back, errw bytes.Buffer
	if code := run([]string{"-c", "-p", "4", "-stats"}, bytes.NewReader(data), &comp, &errw); code != 0 {
		t.Fatalf("compress exit %d: %s", code, errw.String())
	}
	if comp.Len() >= len(data) {
		t.Fatalf("no compression: %d -> %d", len(data), comp.Len())
	}
	if !strings.Contains(errw.String(), "chunks=20000") {
		t.Fatalf("stats missing: %q", errw.String())
	}
	errw.Reset()
	if code := run([]string{"-d"}, bytes.NewReader(comp.Bytes()), &back, &errw); code != 0 {
		t.Fatalf("decompress exit %d: %s", code, errw.String())
	}
	if !bytes.Equal(back.Bytes(), data) {
		t.Fatal("parallel round trip failed")
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{},                 // neither -c nor -d
		{"-c", "-d"},       // both
		{"-c", "-m", "99"}, // out-of-range m caught at pipe setup
	} {
		var out, errw bytes.Buffer
		if code := run(args, strings.NewReader(""), &out, &errw); code == 0 {
			t.Errorf("args %v: expected nonzero exit", args)
		}
	}
}

// errWriter fails after n bytes, modelling a full disk.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, bytes.ErrTooLarge
	}
	w.n -= len(p)
	return len(p), nil
}

func TestOutputErrorExitsNonzero(t *testing.T) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	var errw bytes.Buffer
	if code := run([]string{"-c"}, bytes.NewReader(data), &errWriter{n: 100}, &errw); code == 0 {
		t.Fatal("failing output writer exited 0")
	}
}

func TestDecompressGarbageFails(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-d"}, strings.NewReader("this is not a zipline stream"), &out, &errw); code == 0 {
		t.Fatal("garbage decoded successfully")
	}
}

func TestTrainAndDictRoundTrip(t *testing.T) {
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(4)).Read(chunk)
	corpus := bytes.Repeat(chunk, 4_000)
	dictPath := filepath.Join(t.TempDir(), "basis.zld")

	var out, errw bytes.Buffer
	if code := run([]string{"-train", "-dict", dictPath}, bytes.NewReader(corpus), &out, &errw); code != 0 {
		t.Fatalf("train exit %d: %s", code, errw.String())
	}
	if _, err := os.Stat(dictPath); err != nil {
		t.Fatalf("dictionary not written: %v", err)
	}

	var comp, back bytes.Buffer
	if code := run([]string{"-c", "-dict", dictPath, "-stats"}, bytes.NewReader(corpus), &comp, &errw); code != 0 {
		t.Fatalf("compress exit %d: %s", code, errw.String())
	}
	// Every chunk is pre-trained: zero misses from the first byte.
	if !strings.Contains(errw.String(), "misses=0") {
		t.Fatalf("warm dictionary missed: %q", errw.String())
	}
	errw.Reset()
	if code := run([]string{"-d", "-dict", dictPath}, bytes.NewReader(comp.Bytes()), &back, &errw); code != 0 {
		t.Fatalf("decompress exit %d: %s", code, errw.String())
	}
	if !bytes.Equal(back.Bytes(), corpus) {
		t.Fatal("dict round trip failed")
	}
	// Without the dictionary the stream is rejected, not misdecoded.
	var out2 bytes.Buffer
	errw.Reset()
	if code := run([]string{"-d"}, bytes.NewReader(comp.Bytes()), &out2, &errw); code == 0 {
		t.Fatal("dictless decode of a dict-framed stream exited 0")
	}
	if !strings.Contains(errw.String(), "dictionary") {
		t.Fatalf("rejection did not name the dictionary: %q", errw.String())
	}
}

func TestTrainNeedsDictPath(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-train"}, strings.NewReader(strings.Repeat("x", 64)), &out, &errw); code == 0 {
		t.Fatal("-train without -dict exited 0")
	}
}

func TestIndexRoundTripAndSeek(t *testing.T) {
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(5)).Read(chunk)
	data := append(bytes.Repeat(chunk, 3_000), 0xAB, 0xCD) // 96 KiB + tail

	var comp, back, errw bytes.Buffer
	if code := run([]string{"-c", "-index"}, bytes.NewReader(data), &comp, &errw); code != 0 {
		t.Fatalf("compress exit %d: %s", code, errw.String())
	}
	// The v4 container must still decode through the plain streaming path.
	if code := run([]string{"-d"}, bytes.NewReader(comp.Bytes()), &back, &errw); code != 0 {
		t.Fatalf("decompress exit %d: %s", code, errw.String())
	}
	if !bytes.Equal(back.Bytes(), data) {
		t.Fatal("indexed round trip failed")
	}
	// …and from a pipe — no Seek, no ReadAt — on four decode lanes,
	// with the same bytes and the same counters.
	pr, pw := io.Pipe()
	go func() {
		_, err := pw.Write(comp.Bytes())
		pw.CloseWithError(err)
	}()
	back.Reset()
	errw.Reset()
	if code := run([]string{"-d", "-p", "4", "-stats"}, pr, &back, &errw); code != 0 {
		t.Fatalf("piped -d -p 4 exit %d: %s", code, errw.String())
	}
	if !bytes.Equal(back.Bytes(), data) {
		t.Fatal("piped indexed round trip on 4 lanes failed")
	}
	if !strings.Contains(errw.String(), "chunks=3000") || !strings.Contains(errw.String(), "tail=2") {
		t.Fatalf("lane stats: %q", errw.String())
	}
	// Random access windows, including ones crossing checkpoint
	// boundaries and the unchunked tail bytes.
	for _, w := range []struct{ off, n int }{
		{0, 100}, {17_000, 4_096}, {len(data) - 5, 5},
	} {
		var win bytes.Buffer
		errw.Reset()
		spec := fmt.Sprintf("%d:%d", w.off, w.n)
		if code := run([]string{"-d", "-seek", spec}, bytes.NewReader(comp.Bytes()), &win, &errw); code != 0 {
			t.Fatalf("-seek %s exit %d: %s", spec, code, errw.String())
		}
		if !bytes.Equal(win.Bytes(), data[w.off:w.off+w.n]) {
			t.Fatalf("-seek %s: window mismatch", spec)
		}
	}
}

func TestSeekOnLegacyStream(t *testing.T) {
	// -seek works on pre-index containers too: the Reader rewinds and
	// replays, trading speed for compatibility.
	data := make([]byte, 50_000)
	rand.New(rand.NewSource(6)).Read(data)
	var comp, win, errw bytes.Buffer
	if code := run([]string{"-c"}, bytes.NewReader(data), &comp, &errw); code != 0 {
		t.Fatalf("compress exit %d: %s", code, errw.String())
	}
	if code := run([]string{"-d", "-seek", "40000:1000"}, bytes.NewReader(comp.Bytes()), &win, &errw); code != 0 {
		t.Fatalf("-seek exit %d: %s", code, errw.String())
	}
	if !bytes.Equal(win.Bytes(), data[40_000:41_000]) {
		t.Fatal("legacy seek window mismatch")
	}
}

func TestIndexAndSeekFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-d", "-index"},            // -index is a writer option
		{"-c", "-index", "-p", "4"}, // index needs the serial writer
		{"-c", "-seek", "0:10"},     // -seek is a reader option
		{"-d", "-seek", "banana"},   // malformed spec
		{"-d", "-seek", "10"},       // missing :LEN
		{"-d", "-seek", "-5:10"},    // negative offset
	} {
		var out, errw bytes.Buffer
		if code := run(args, strings.NewReader(""), &out, &errw); code == 0 {
			t.Errorf("args %v: expected nonzero exit", args)
		}
	}
}
