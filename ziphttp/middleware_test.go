package ziphttp_test

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zipline"
	"zipline/ziphttp"
)

// sensorPayload builds a compressible body: 32-byte records drawn from
// a handful of bases with single-bit glitches — the Hamming-ball
// redundancy GD is built for.
func sensorPayload(seed int64, size int) []byte {
	rng := rand.New(rand.NewSource(seed))
	bases := make([][]byte, 8)
	for i := range bases {
		bases[i] = make([]byte, 32)
		rng.Read(bases[i])
	}
	out := make([]byte, 0, size)
	for len(out) < size {
		chunk := append([]byte(nil), bases[rng.Intn(len(bases))]...)
		chunk[rng.Intn(32)] ^= 1 << uint(rng.Intn(8))
		out = append(out, chunk...)
	}
	return out[:size]
}

// serve runs one request against a wrapped handler and returns the raw
// recorded response (no transport decoding).
func serve(t *testing.T, wrap func(http.Handler) http.Handler, h http.Handler, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", "http://gw.test/", nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	wrap(h).ServeHTTP(rec, req)
	return rec
}

// decodeStream decodes one dictless zipline stream through a fresh
// Reader.
func decodeStream(data []byte) ([]byte, error) {
	zr, err := zipline.NewReader(nil)
	if err != nil {
		return nil, err
	}
	return zr.DecodeAll(data, nil)
}

func payloadHandler(body []byte, ct string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.Write(body)
	})
}

func TestMiddlewareCompressesAdvertisingClient(t *testing.T) {
	wrap, err := ziphttp.NewMiddleware()
	if err != nil {
		t.Fatal(err)
	}
	body := sensorPayload(1, 8<<10)
	rec := serve(t, wrap, payloadHandler(body, "application/octet-stream"),
		map[string]string{"Accept-Encoding": "zipline"})

	if got := rec.Header().Get("Content-Encoding"); got != "zipline" {
		t.Fatalf("Content-Encoding = %q, want zipline", got)
	}
	if got := rec.Header().Get("Vary"); !strings.Contains(got, "Accept-Encoding") {
		t.Fatalf("Vary = %q, want Accept-Encoding", got)
	}
	if rec.Header().Get("Content-Length") != "" {
		t.Fatalf("Content-Length survived recoding")
	}
	comp := rec.Body.Bytes()
	if len(comp) >= len(body) {
		t.Fatalf("compressed %d bytes >= identity %d", len(comp), len(body))
	}
	back, err := decodeStream(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, body) {
		t.Fatal("round trip mismatch")
	}
}

// TestMiddlewareGating is the edge-case table: every row must come
// back identity, body intact.
func TestMiddlewareGating(t *testing.T) {
	dict, err := zipline.TrainDict(sensorPayload(2, 32<<10), zipline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := sensorPayload(3, 8<<10)
	small := body[:100]

	cases := []struct {
		name string
		opts []ziphttp.Option
		h    http.Handler
		hdr  map[string]string
		want []byte
	}{
		{
			name: "client does not advertise support",
			h:    payloadHandler(body, "application/octet-stream"),
			hdr:  map[string]string{"Accept-Encoding": "gzip, br"},
			want: body,
		},
		{
			name: "client advertises with q=0",
			h:    payloadHandler(body, "application/octet-stream"),
			hdr:  map[string]string{"Accept-Encoding": "zipline;q=0"},
			want: body,
		},
		{
			name: "below minimum size",
			h:    payloadHandler(small, "application/octet-stream"),
			hdr:  map[string]string{"Accept-Encoding": "zipline"},
			want: small,
		},
		{
			name: "non-matching content type (allowlist)",
			opts: []ziphttp.Option{ziphttp.WithContentTypes("application/json")},
			h:    payloadHandler(body, "text/html"),
			hdr:  map[string]string{"Accept-Encoding": "zipline"},
			want: body,
		},
		{
			name: "already entropy-coded type (default blocklist)",
			h:    payloadHandler(body, "image/png"),
			hdr:  map[string]string{"Accept-Encoding": "zipline"},
			want: body,
		},
		{
			name: "handler already set Content-Encoding",
			h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Encoding", "br")
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Write(body)
			}),
			hdr:  map[string]string{"Accept-Encoding": "zipline"},
			want: body,
		},
		{
			name: "dict mismatch falls back to identity",
			opts: []ziphttp.Option{ziphttp.WithDict(dict)},
			h:    payloadHandler(body, "application/octet-stream"),
			hdr: map[string]string{
				"Accept-Encoding": "zipline",
				"Zipline-Dict":    "deadbeef",
			},
			want: body,
		},
		{
			name: "dict server, client holds none",
			opts: []ziphttp.Option{ziphttp.WithDict(dict)},
			h:    payloadHandler(body, "application/octet-stream"),
			hdr:  map[string]string{"Accept-Encoding": "zipline"},
			want: body,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wrap, err := ziphttp.NewMiddleware(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			rec := serve(t, wrap, tc.h, tc.hdr)
			if tc.name == "handler already set Content-Encoding" {
				if got := rec.Header().Get("Content-Encoding"); got != "br" {
					t.Fatalf("Content-Encoding = %q, want br untouched", got)
				}
			} else if got := rec.Header().Get("Content-Encoding"); got != "" {
				t.Fatalf("Content-Encoding = %q, want identity", got)
			}
			if !bytes.Equal(rec.Body.Bytes(), tc.want) {
				t.Fatalf("identity body corrupted: got %d bytes, want %d",
					rec.Body.Len(), len(tc.want))
			}
		})
	}
}

func TestMiddlewareDictNegotiation(t *testing.T) {
	corpusA := sensorPayload(10, 32<<10)
	corpusB := sensorPayload(11, 32<<10)
	dictA, err := zipline.TrainDict(corpusA, zipline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dictB, err := zipline.TrainDict(corpusB, zipline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wrap, err := ziphttp.NewMiddleware(ziphttp.WithDict(dictA), ziphttp.WithDict(dictB))
	if err != nil {
		t.Fatal(err)
	}
	body := sensorPayload(11, 8<<10) // dictB's distribution

	// Client holds only dictB: the server must pick it and name it.
	rec := serve(t, wrap, payloadHandler(body, "application/octet-stream"), map[string]string{
		"Accept-Encoding": "zipline",
		"Zipline-Dict":    ziphttp.FormatDictID(dictB.ID()),
	})
	if got := rec.Header().Get("Content-Encoding"); got != "zipline" {
		t.Fatalf("Content-Encoding = %q, want zipline", got)
	}
	if got := rec.Header().Get("Zipline-Dict"); got != ziphttp.FormatDictID(dictB.ID()) {
		t.Fatalf("response Zipline-Dict = %q, want %s", got, ziphttp.FormatDictID(dictB.ID()))
	}
	if !strings.Contains(rec.Header().Get("Vary"), "Zipline-Dict") {
		t.Fatalf("Vary = %q, want Zipline-Dict listed", rec.Header().Get("Vary"))
	}
	zr, err := zipline.NewReader(bytes.NewReader(rec.Body.Bytes()), zipline.WithDict(dictB))
	if err != nil {
		t.Fatal(err)
	}
	back, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, body) {
		t.Fatal("dict round trip mismatch")
	}

	// Client holds both: registration order (dictA first) wins.
	rec = serve(t, wrap, payloadHandler(body, "application/octet-stream"), map[string]string{
		"Accept-Encoding": "zipline",
		"Zipline-Dict":    ziphttp.FormatDictID(dictB.ID()) + "," + ziphttp.FormatDictID(dictA.ID()),
	})
	if got := rec.Header().Get("Zipline-Dict"); got != ziphttp.FormatDictID(dictA.ID()) {
		t.Fatalf("preference order: response dict %q, want %s", got, ziphttp.FormatDictID(dictA.ID()))
	}
}

// TestMiddlewareFlushStreams pins the http.Flusher path: a streaming
// handler below the size gate still compresses (the gate is waived on
// Flush) and every flushed segment round-trips.
func TestMiddlewareFlushStreams(t *testing.T) {
	wrap, err := ziphttp.NewMiddleware(ziphttp.WithMinSize(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	seg := sensorPayload(4, 320)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		f := w.(http.Flusher)
		for i := 0; i < 10; i++ {
			w.Write(seg)
			f.Flush()
		}
	})
	rec := serve(t, wrap, h, map[string]string{"Accept-Encoding": "zipline"})
	if got := rec.Header().Get("Content-Encoding"); got != "zipline" {
		t.Fatalf("Content-Encoding = %q, want zipline (gate waived on Flush)", got)
	}
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}
	back, err := decodeStream(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, bytes.Repeat(seg, 10)) {
		t.Fatal("streamed round trip mismatch")
	}
}

// TestMiddlewareReadFrom drives the io.ReaderFrom path
// (http.ServeContent uses io.Copy, which prefers ReadFrom) and checks
// compression still applies.
func TestMiddlewareReadFrom(t *testing.T) {
	wrap, err := ziphttp.NewMiddleware()
	if err != nil {
		t.Fatal(err)
	}
	body := sensorPayload(5, 16<<10)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		rf := w.(io.ReaderFrom)
		if _, err := rf.ReadFrom(bytes.NewReader(body)); err != nil {
			t.Errorf("ReadFrom: %v", err)
		}
	})
	rec := serve(t, wrap, h, map[string]string{"Accept-Encoding": "zipline"})
	if got := rec.Header().Get("Content-Encoding"); got != "zipline" {
		t.Fatalf("Content-Encoding = %q, want zipline", got)
	}
	back, err := decodeStream(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, body) {
		t.Fatal("ReadFrom round trip mismatch")
	}
}

// TestMiddlewareStatusCodes checks WriteHeader deferral: explicit
// status codes survive both paths, and no-body codes never compress.
func TestMiddlewareStatusCodes(t *testing.T) {
	wrap, err := ziphttp.NewMiddleware()
	if err != nil {
		t.Fatal(err)
	}
	body := sensorPayload(6, 8<<10)

	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusTeapot)
		w.Write(body)
	})
	rec := serve(t, wrap, h, map[string]string{"Accept-Encoding": "zipline"})
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status %d, want 418", rec.Code)
	}
	if rec.Header().Get("Content-Encoding") != "zipline" {
		t.Fatal("418 with a large body should still compress")
	}

	h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	rec = serve(t, wrap, h, map[string]string{"Accept-Encoding": "zipline"})
	if rec.Code != http.StatusNoContent || rec.Body.Len() != 0 {
		t.Fatalf("204: code %d body %d", rec.Code, rec.Body.Len())
	}
	if rec.Header().Get("Content-Encoding") != "" {
		t.Fatal("204 must not carry Content-Encoding")
	}
}

// TestMiddlewareHijack checks the Hijacker passthrough over a real
// server connection.
func TestMiddlewareHijack(t *testing.T) {
	wrap, err := ziphttp.NewMiddleware()
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("wrapper lost http.Hijacker")
			return
		}
		conn, brw, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		defer conn.Close()
		brw.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nraw!\n")
		brw.Flush()
	})
	srv := httptest.NewServer(wrap(h))
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL, nil)
	req.Header.Set("Accept-Encoding", "zipline")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if string(got) != "raw!\n" {
		t.Fatalf("hijacked body %q", got)
	}
}

// TestMiddlewareHeadRequest: HEAD responses pass through untouched.
func TestMiddlewareHeadRequest(t *testing.T) {
	wrap, err := ziphttp.NewMiddleware()
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", "8192")
	})
	req := httptest.NewRequest("HEAD", "http://gw.test/", nil)
	req.Header.Set("Accept-Encoding", "zipline")
	rec := httptest.NewRecorder()
	wrap(h).ServeHTTP(rec, req)
	if rec.Header().Get("Content-Encoding") != "" {
		t.Fatal("HEAD response gained Content-Encoding")
	}
	if rec.Header().Get("Content-Length") != "8192" {
		t.Fatal("HEAD lost Content-Length")
	}
}

func TestMiddlewareOptionValidation(t *testing.T) {
	if _, err := ziphttp.NewMiddleware(ziphttp.WithMinSize(-1)); err == nil {
		t.Fatal("negative min size accepted")
	}
	if _, err := ziphttp.NewMiddleware(ziphttp.WithDict(nil)); err == nil {
		t.Fatal("nil dict accepted")
	}
	if _, err := ziphttp.NewMiddleware(ziphttp.WithContentTypes("html")); err == nil {
		t.Fatal("non-media-type accepted")
	}
	dict, err := zipline.TrainDict(sensorPayload(7, 32<<10), zipline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ziphttp.NewMiddleware(ziphttp.WithDict(dict), ziphttp.WithDict(dict)); err == nil {
		t.Fatal("duplicate dict accepted")
	}
	// Conflicting config × dict training point must surface at
	// construction, exactly like zipline.NewWriter.
	if _, err := ziphttp.NewMiddleware(ziphttp.WithDict(dict),
		ziphttp.WithConfig(zipline.Config{M: 10})); err == nil {
		t.Fatal("conflicting config accepted")
	}
}
