package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"zipline"
	"zipline/ziphttp"
)

// bodySizes cycle per request: 128 B is below ziphttp.DefaultMinSize
// and is served identity; the rest go through the codec.
var bodySizes = [...]int{128, 4 << 10, 16 << 10, 64 << 10}

const gatewayClients = 2

var (
	rungLoopback  = &rung{"http.Client.Do over loopback", "ziphttp", ""}
	rungTransport = &rung{"ziphttp.Transport.RoundTrip", "ziphttp", rungLoopback.name}
	rungHandler   = &rung{"ziphttp middleware ServeHTTP", "ziphttp", rungTransport.name}
	rungBodyEnc   = &rung{"zipline.Writer.EncodeAll", "zipline", rungHandler.name}
)

type gatewayRunner struct {
	bodies   [len(bodySizes)][]byte
	dict     *zipline.Dict
	handler  http.Handler
	srv      *httptest.Server
	clients  [gatewayClients]*gatewayClient
	requests int // per pass, all clients

	topWall   time.Duration
	topAllocs uint64
	identity  int
	latencies []float64 // µs, last pass, sorted
}

// gatewayClient is one closed-loop client: one keep-alive connection,
// wire bytes counted beneath the ziphttp.Transport.
type gatewayClient struct {
	http      *http.Client
	base      *http.Transport
	reqs      [len(bodySizes)]*http.Request
	buf       []byte
	wire      int64 // body bytes as they crossed the socket
	latencies []float64
}

// countingBase counts response body bytes under the transport that
// decodes them.
type countingBase struct {
	base http.RoundTripper
	n    *int64
}

func (c countingBase) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{resp.Body, c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

func setupGateway(seed int64, quick bool) (runner, error) {
	r := &gatewayRunner{requests: 4096}
	if quick {
		r.requests = 256
	}
	// The dictionary is trained on a corpus the bodies are cut from, so
	// every body is dictionary-covered.
	corpus, err := sensorInput(seed, 4<<20)
	if err != nil {
		return nil, err
	}
	off := 0
	for i, n := range bodySizes {
		r.bodies[i] = corpus[off : off+n]
		off += n
	}
	if r.dict, err = zipline.TrainDict(corpus, zipline.Config{}); err != nil {
		return nil, err
	}
	wrap, err := ziphttp.NewMiddleware(ziphttp.WithDict(r.dict))
	if err != nil {
		return nil, err
	}
	r.handler = wrap(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		i, err := strconv.Atoi(req.URL.RawQuery)
		if err != nil || i < 0 || i >= len(r.bodies) {
			http.Error(w, "bad body index", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(r.bodies[i]) // a failed write shows as a failed request at the client
	}))
	r.srv = httptest.NewServer(r.handler)
	for c := range r.clients {
		cl := &gatewayClient{
			base:      &http.Transport{MaxConnsPerHost: 1, DisableCompression: true},
			buf:       make([]byte, bodySizes[len(bodySizes)-1]+1),
			latencies: make([]float64, 0, r.requests),
		}
		tr, err := ziphttp.NewTransport(countingBase{cl.base, &cl.wire}, ziphttp.WithDict(r.dict))
		if err != nil {
			r.close()
			return nil, err
		}
		cl.http = &http.Client{Transport: tr}
		for i := range cl.reqs {
			if cl.reqs[i], err = http.NewRequest("GET", r.srv.URL+"/?"+strconv.Itoa(i), nil); err != nil {
				r.close()
				return nil, err
			}
		}
		r.clients[c] = cl
	}
	return r, nil
}

func (r *gatewayRunner) inputHash() uint64 { return hashBytes(r.bodies[:]...) }

func (r *gatewayRunner) close() {
	for _, c := range r.clients {
		if c != nil {
			c.base.CloseIdleConnections()
		}
	}
	r.srv.Close()
}

// fetch does one request and reports whether the body arrived intact
// and whether it was served identity.
func (c *gatewayClient) fetch(i int, want []byte) (ok, identity bool) {
	resp, err := c.http.Do(c.reqs[i])
	if err != nil {
		return false, false
	}
	n, err := io.ReadFull(resp.Body, c.buf)
	cerr := resp.Body.Close()
	ok = err == io.ErrUnexpectedEOF && cerr == nil && resp.StatusCode == http.StatusOK &&
		bytes.Equal(c.buf[:n], want)
	return ok, !resp.Uncompressed
}

func (r *gatewayRunner) pass(tr *tracer) (passResult, error) {
	per := r.requests / gatewayClients
	var m0 uint64
	if tr != nil {
		m0 = mallocs()
	}
	var failed, identity [gatewayClients]int
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, cl := range r.clients {
		cl.wire, cl.latencies = 0, cl.latencies[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				i := k % len(bodySizes)
				s := time.Now()
				ok, id := cl.fetch(i, r.bodies[i])
				cl.latencies = append(cl.latencies, float64(time.Since(s).Nanoseconds())/1e3)
				if tr != nil && c == 0 {
					// One client's spans: the tracer is not shared between goroutines.
					tr.end(rungLoopback, k, s)
				}
				if !ok {
					failed[c]++
				}
				if id {
					identity[c]++
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	res := passResult{attempted: per * gatewayClients, top: wall}
	var plain, decoded, wire int64
	for k := 0; k < per; k++ {
		n := int64(bodySizes[k%len(bodySizes)])
		plain += n
		if n >= ziphttp.DefaultMinSize {
			decoded += n
		}
	}
	plain, decoded = plain*gatewayClients, decoded*gatewayClients
	r.latencies, r.identity = r.latencies[:0], 0
	for c, cl := range r.clients {
		res.failed += failed[c]
		wire += cl.wire
		r.identity += identity[c]
		r.latencies = append(r.latencies, cl.latencies...)
	}
	sort.Float64s(r.latencies)
	if tr != nil {
		r.topAllocs = mallocs() - m0
		r.topWall = wall
	}
	res.opsPerS = float64(res.attempted) / wall.Seconds()
	res.encodeMBs = mbPerS(int(plain), wall)
	res.decodeMBs = mbPerS(int(decoded), wall)
	res.wireRatio = float64(wire) / float64(plain)
	return res, nil
}

// recorderBase serves requests from the handler in memory, so the
// transport rung runs without a socket.
type recorderBase struct{ h http.Handler }

func (b recorderBase) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// ladder replays one client's request sequence, single goroutine,
// through each rung beneath the loopback one.
func (r *gatewayRunner) ladder(tr *tracer, layer samples) error {
	n := r.requests / gatewayClients
	enc, err := zipline.NewWriter(io.Discard, zipline.WithDict(r.dict))
	if err != nil {
		return err
	}
	var comp []byte
	tEnc := timeOps(tr, rungBodyEnc, n, func(k int) {
		if body := r.bodies[k%len(bodySizes)]; len(body) >= ziphttp.DefaultMinSize {
			comp = enc.EncodeAll(body, comp[:0])
		}
	})

	var reqs [len(bodySizes)]*http.Request
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", "/?"+strconv.Itoa(i), nil)
		reqs[i].Header.Set("Accept-Encoding", ziphttp.ContentEncoding)
		reqs[i].Header.Set(ziphttp.DictHeader, ziphttp.FormatDictID(r.dict.ID()))
	}
	tHandler := timeOps(tr, rungHandler, n, func(k int) {
		rec := httptest.NewRecorder()
		r.handler.ServeHTTP(rec, reqs[k%len(bodySizes)])
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("ladder: handler answered %d", rec.Code)
		}
	})
	if err != nil {
		return err
	}

	zt, err := ziphttp.NewTransport(recorderBase{r.handler}, ziphttp.WithDict(r.dict))
	if err != nil {
		return err
	}
	cl := &gatewayClient{http: &http.Client{Transport: zt}, reqs: r.clients[0].reqs, buf: r.clients[0].buf}
	tTransport := timeOps(tr, rungTransport, n, func(k int) {
		i := k % len(bodySizes)
		if ok, _ := cl.fetch(i, r.bodies[i]); !ok {
			err = fmt.Errorf("ladder: the transport rung returned a wrong body")
		}
	})
	if err != nil {
		return err
	}

	// The top rung ran gatewayClients loops side by side; its time per
	// request of one client is the pass's wall time over n.
	layer.add("encodeall", perOp(tEnc, n))
	layer.add("handler", perOp(tHandler, n))
	layer.add("transport", perOp(tTransport, n))
	layer.add("loopback", perOp(r.topWall, n))
	layer.add("ziphttp.allocs_per_req", float64(r.topAllocs)/float64(r.requests))
	layer.add("ziphttp.identity_share", float64(r.identity)/float64(r.requests))
	layer.add("ziphttp.req_p50_us", percentile(r.latencies, 50))
	layer.add("ziphttp.req_p99_us", percentile(r.latencies, 99))
	return nil
}

// layers turns the rungs' times (ns per request) into self times.
func (r *gatewayRunner) layers(t map[string]float64) map[string]float64 {
	return map[string]float64{
		"zipline.encodeall_ns_per_req": t["encodeall"],
		"ziphttp.handler_ns_per_req":   t["handler"] - t["encodeall"],
		"ziphttp.transport_ns_per_req": t["transport"] - t["handler"],
		"ziphttp.loopback_ns_per_req":  t["loopback"] - t["transport"],
		"ziphttp.tax":                  t["loopback"] / t["encodeall"],
	}
}
