package experiments

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"zipline/internal/netsim"
	"zipline/internal/packet"
	"zipline/internal/scenario"
)

// repeat offers payload n times.
func repeat(payload []byte, n int) func(i int) []byte {
	return func(i int) []byte {
		if i >= n {
			return nil
		}
		return payload
	}
}

// wireRatio is the sink's payload bytes over the offered ones.
func wireRatio(r scenario.Report, rx netsim.RxStats) float64 {
	return float64(rx.PayloadBytes) / float64(r.Offered.PayloadBytes)
}

func TestInlineLinkCompresses(t *testing.T) {
	payload := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(payload)
	r, rx, err := InlineLink(1, 1_000_000, repeat(payload, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Offered.Frames != 5000 || rx.Frames != 5000 {
		t.Fatalf("sent/received = %d/%d", r.Offered.Frames, rx.Frames)
	}
	if r.Learning.Learned != 1 {
		t.Fatalf("learned = %d", r.Learning.Learned)
	}
	if rx.TypeFrames[packet.TypeCompressed] == 0 || rx.TypeFrames[packet.TypeUncompressed] == 0 {
		t.Fatalf("frame mix = %v", rx.TypeFrames)
	}
	if ratio := wireRatio(r, rx); ratio >= 1 {
		t.Fatalf("ratio = %.3f, no compression", ratio)
	}
	gap := rx.FirstArrival[packet.TypeCompressed] - rx.FirstArrival[packet.TypeUncompressed]
	if gap < 1_500_000 || gap > 2_100_000 {
		t.Fatalf("learning gap = %d ns", gap)
	}
}

// TestInlineLinkCompressedMajority: after the control plane learns the
// one basis (≈1.8 ms), every packet crosses the link compressed, and
// the same seed and payloads give the same run.
func TestInlineLinkCompressedMajority(t *testing.T) {
	payloads := repeat(bytes.Repeat([]byte{0x42}, 32), 10_000)
	r, rx, err := InlineLink(1, 150_000, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if r.Learning.Learned != 1 {
		t.Fatalf("learned = %d", r.Learning.Learned)
	}
	if t3, t2 := rx.TypeFrames[packet.TypeCompressed], rx.TypeFrames[packet.TypeUncompressed]; t3 <= t2 {
		t.Fatalf("%d compressed frames, %d uncompressed", t3, t2)
	}
	if ratio := wireRatio(r, rx); ratio >= 0.2 {
		t.Fatalf("ratio = %.3f, want below 0.2", ratio)
	}
	again, rxAgain, err := InlineLink(1, 150_000, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, again) || rx != rxAgain {
		t.Fatalf("same seed and payloads, different runs:\n%+v\n%+v", r, again)
	}
}

func TestInlineLinkShortPayloadsPassThrough(t *testing.T) {
	r, rx, err := InlineLink(1, 150_000, repeat([]byte{1, 2, 3}, 100))
	if err != nil {
		t.Fatal(err)
	}
	if rx.TypeFrames[packet.TypeRaw] != 100 || rx.TypeFrames[packet.TypeCompressed] != 0 {
		t.Fatalf("frame mix = %v", rx.TypeFrames)
	}
	if ratio := wireRatio(r, rx); ratio != 1 {
		t.Fatalf("ratio = %.3f", ratio)
	}
}

// TestInlineLinkTTL: packets 1 ms apart against a 100 µs TTL find
// their mapping aged out far more often than not. The aging sweep
// re-arms itself forever, so the spec bounds the run.
func TestInlineLinkTTL(t *testing.T) {
	payload := make([]byte, 32)
	rand.New(rand.NewSource(2)).Read(payload)
	run := func(ttl int64) scenario.Report {
		spec := fixture("inline-ttl", 1, scenario.RoleEncode, 1000)
		spec.Controller.TTLNs = ttl
		spec.DurationNs = int64(200 * netsim.Millisecond)
		sc, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := stream(sc, repeat(payload, 100))
		if r.Offered.Frames != 100 || r.Hosts[1].RxFrames != r.Offered.Frames {
			t.Fatalf("ttl %d: sent/received = %d/%d", ttl, r.Offered.Frames, r.Hosts[1].RxFrames)
		}
		return r
	}
	kept, aged := run(0), run(100_000)
	if kept.Hosts[1].Type3Frames < 90 {
		t.Fatalf("without aging only %d of 100 frames compressed", kept.Hosts[1].Type3Frames)
	}
	if aged.Hosts[1].Type3Frames*2 > kept.Hosts[1].Type3Frames {
		t.Fatalf("compressed frames: %d with a 100 µs TTL vs %d without; aging had no effect",
			aged.Hosts[1].Type3Frames, kept.Hosts[1].Type3Frames)
	}
	if aged.Learning.Learned < 2 {
		t.Fatalf("learned %d times with aging, want the basis re-learned", aged.Learning.Learned)
	}
}
