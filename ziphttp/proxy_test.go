package ziphttp_test

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"zipline"
	"zipline/ziphttp"
)

// tcpPair returns two ends of a real loopback TCP connection, so the
// half-close semantics under test (CloseWrite) actually exist.
func tcpPair(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ac := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ac <- accepted{c, err}
	}()
	dialer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ac
	if a.err != nil {
		dialer.Close()
		t.Fatal(a.err)
	}
	t.Cleanup(func() {
		dialer.Close()
		a.c.Close()
	})
	return dialer, a.c
}

// bridgePair builds the paper's deployment in miniature over loopback
// TCP: application A ↔ proxy A ↔ peer link ↔ proxy B ↔ application B.
func bridgePair(t testing.TB, opts ...ziphttp.Option) (appA, appB net.Conn) {
	t.Helper()
	pA, err := ziphttp.NewProxy(opts...)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := ziphttp.NewProxy(opts...)
	if err != nil {
		t.Fatal(err)
	}
	appA, innerA := tcpPair(t)
	linkA, linkB := tcpPair(t)
	appB, innerB := tcpPair(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); pA.Bridge(innerA, linkA) }()
	go func() { defer wg.Done(); pB.Bridge(innerB, linkB) }()
	t.Cleanup(func() {
		appA.Close()
		appB.Close()
		wg.Wait()
	})
	return appA, appB
}

func TestProxyTCPRoundTrip(t *testing.T) {
	appA, appB := bridgePair(t)
	payload := sensorPayload(30, 64<<10)
	go func() {
		appA.Write(payload)
		appA.(*net.TCPConn).CloseWrite()
	}()
	got, err := io.ReadAll(appB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("proxy stream mismatch: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestProxyDuplexEcho(t *testing.T) {
	appA, appB := bridgePair(t)
	// appB echoes everything back.
	go io.Copy(appB, appB)

	msg := sensorPayload(31, 8<<10)
	var got []byte
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(msg))
		_, err := io.ReadFull(appA, buf)
		got = buf
		done <- err
	}()
	if _, err := appA.Write(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("echo timed out")
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("duplex echo mismatch")
	}
}

func TestProxySharedDict(t *testing.T) {
	corpus := sensorPayload(32, 64<<10)
	dict, err := zipline.TrainDict(corpus, zipline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	appA, appB := bridgePair(t, ziphttp.WithDict(dict))
	msg := sensorPayload(32, 16<<10)
	go func() {
		appA.Write(msg)
		appA.Close()
	}()
	got, err := io.ReadAll(appB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("shared-dict proxy stream mismatch")
	}
}

// TestProxyHalfClose pins the drain semantics: half-closing the sending
// application's connection finishes the container in flight and
// propagates as a half-close to the receiving application — which can
// still answer over the reverse direction afterwards. No stranded
// bytes, no hang.
func TestProxyHalfClose(t *testing.T) {
	appA, appB := bridgePair(t)
	msg := sensorPayload(33, 40<<10)
	reply := sensorPayload(36, 4<<10)
	go func() {
		appA.Write(msg)
		appA.(*net.TCPConn).CloseWrite()
	}()
	got, err := io.ReadAll(appB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("half-close drain: got %d bytes, want %d", len(got), len(msg))
	}
	// The reverse direction must still be open.
	go func() {
		appB.Write(reply)
		appB.(*net.TCPConn).CloseWrite()
	}()
	back, err := io.ReadAll(appA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, reply) {
		t.Fatal("reverse direction died with the forward half-close")
	}
}

// TestProxySegmentLatency pins the Flush-per-segment behaviour: a small
// write is deliverable to the far application without the sender
// closing — the stream cuts through.
func TestProxySegmentLatency(t *testing.T) {
	appA, appB := bridgePair(t)
	// One chunk-aligned segment so nothing is stuck in a partial chunk.
	seg := sensorPayload(34, 512)
	errc := make(chan error, 1)
	go func() {
		_, err := appA.Write(seg)
		errc <- err
	}()
	buf := make([]byte, len(seg))
	appB.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(appB, buf); err != nil {
		t.Fatalf("segment did not cut through before close: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, seg) {
		t.Fatal("segment mismatch")
	}
}

// TestProxyBridgeTeardown pins that an abrupt peer-link failure tears
// the bridge down without leaking goroutines — including over
// transports with no half-close at all (net.Pipe).
func TestProxyBridgeTeardown(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		p, err := ziphttp.NewProxy()
		if err != nil {
			t.Fatal(err)
		}
		app, inner := net.Pipe()
		linkA, linkB := net.Pipe()
		done := make(chan struct{})
		go func() {
			p.Bridge(inner, linkA)
			close(done)
		}()
		app.Write(sensorPayload(35, 1024))
		// Kill the peer link mid-stream: both directions must unwind.
		linkB.Close()
		app.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("bridge leaked after peer-link failure")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestProxyManyConnections reuses one proxy pair's pools across
// sequential bridges so engines are re-served via Reset.
func TestProxyManyConnections(t *testing.T) {
	pA, err := ziphttp.NewProxy()
	if err != nil {
		t.Fatal(err)
	}
	pB, err := ziphttp.NewProxy()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		appA, innerA := tcpPair(t)
		linkA, linkB := tcpPair(t)
		appB, innerB := tcpPair(t)
		go pA.Bridge(innerA, linkA)
		go pB.Bridge(innerB, linkB)
		msg := sensorPayload(int64(40+i), 4<<10)
		go func() {
			appA.Write(msg)
			appA.Close()
		}()
		got, err := io.ReadAll(appB)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("conn %d: mismatch", i)
		}
		appB.Close()
	}
}

// BenchmarkProxyStream measures sustained throughput through a bridged
// proxy pair over loopback TCP: one 64 KiB dictionary-covered segment
// per op, written plain on one side and read plain on the far side,
// compressed on the link between. The repo benchmark (bench/) drives
// the HTTP gateway but not the TCP proxy, so this is the only
// measurement of that path.
func BenchmarkProxyStream(b *testing.B) {
	payload := sensorPayload(33, 64<<10)
	dict, err := zipline.TrainDict(payload, zipline.Config{})
	if err != nil {
		b.Fatal(err)
	}
	appA, appB := bridgePair(b, ziphttp.WithDict(dict))
	buf := make([]byte, len(payload))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := appA.Write(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(appB, buf); err != nil {
			b.Fatal(err)
		}
	}
}
