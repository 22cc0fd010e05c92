package experiments

import (
	"bytes"
	"testing"

	"zipline/internal/netsim"
	"zipline/internal/packet"
	"zipline/internal/pcap"
	"zipline/internal/scenario"
	"zipline/internal/trace"
	"zipline/internal/zswitch"
)

// TestEndToEndPcapReplayThroughSwitchPair is the full-stack
// integration test: generate a sensor trace, write it to a pcap,
// replay it through encoder switch → link → decoder switch with a
// live control plane, and verify every payload arrives byte-exact at
// the far host while the middle hop carried compressed traffic.
func TestEndToEndPcapReplayThroughSwitchPair(t *testing.T) {
	ds := trace.Sensor(trace.SensorConfig{Records: 20_000, Sensors: 50, Seed: 31})

	// Testbed: sender — encoder switch — decoder switch — sink, with
	// one control plane spanning both switches.
	sc, err := scenario.Build(scenario.Spec{
		Name: "pcap-replay",
		Seed: 37,
		Hosts: []scenario.HostSpec{
			{Name: "sender", MaxPPS: 500_000},
			{Name: "sink"},
		},
		Switches: []scenario.SwitchSpec{
			{Name: "enc", Ports: []scenario.PortSpec{{Port: 0, Role: scenario.RoleEncode, Out: 1}}},
			{Name: "dec", Ports: []scenario.PortSpec{{Port: 0, Role: scenario.RoleDecode, Out: 1}}},
		},
		Links: []scenario.LinkSpec{
			{A: "sender", B: "enc:0"},
			{A: "enc:1", B: "dec:0"},
			{A: "dec:1", B: "sink"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Trace → pcap → frames (exercising the capture path).
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WritePcap(w, sc.MAC("sender"), sc.MAC("sink"), 5000); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for {
		_, frame, err := r.Next()
		if err != nil {
			break
		}
		frames = append(frames, frame)
	}
	if len(frames) != ds.Records() {
		t.Fatalf("pcap frames = %d", len(frames))
	}

	var received [][]byte
	sc.Host("sink").OnReceive = func(frame []byte, at netsim.Time) {
		received = append(received, bytes.Clone(frame))
	}
	sc.Host("sender").Stream(0, 0, func(i uint64) []byte {
		if int(i) >= len(frames) {
			return nil
		}
		sc.CountOffered(1, uint64(len(frames[i])-packet.HeaderLen))
		return frames[i]
	})
	rep := sc.Run()

	if len(received) != len(frames) {
		t.Fatalf("received %d of %d frames", len(received), len(frames))
	}
	for i, frame := range received {
		_, payload, err := packet.ParseHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, ds.Record(i)) {
			t.Fatalf("payload %d mismatch after encode/decode hop", i)
		}
	}

	// The compressed hop must have carried mostly type 3 traffic.
	encStats := zswitch.ReadStats(sc.Pipeline("enc"))
	decStats := zswitch.ReadStats(sc.Pipeline("dec"))
	if encStats.RawToType3 == 0 {
		t.Fatal("no compression on the hop")
	}
	if decStats.Type3ToRaw != encStats.RawToType3 || decStats.Type2ToRaw != encStats.RawToType2 {
		t.Fatalf("hop accounting mismatch: enc=%+v dec=%+v", encStats, decStats)
	}
	if decStats.DecodeMiss != 0 {
		t.Fatalf("decode misses: %d", decStats.DecodeMiss)
	}
	var hopBytes uint64
	for _, l := range rep.Links {
		if l.From == "enc:1" && l.To == "dec:0" {
			hopBytes = l.TxBytes
		}
	}
	rawBytes := uint64(ds.Records()) * uint64(packet.HeaderLen+ds.RecordSize)
	if hopBytes == 0 || hopBytes >= rawBytes {
		t.Fatalf("hop carried %d bytes, raw %d", hopBytes, rawBytes)
	}
	t.Logf("hop carried %.1f%% of raw frame bytes (learned %d bases)",
		100*float64(hopBytes)/float64(rawBytes), rep.Learning.Learned)
}
