package experiments

import (
	"bytes"
	"testing"

	"zipline/internal/controlplane"
	"zipline/internal/netsim"
	"zipline/internal/packet"
	"zipline/internal/pcap"
	"zipline/internal/tofino"
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

	// Trace → pcap → frames (exercising the capture path).
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := packet.MAC{2, 0, 0, 0, 0, 1}
	dst := packet.MAC{2, 0, 0, 0, 0, 2}
	if err := ds.WritePcap(w, src, dst, 5000); err != nil {
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

	// Testbed: host A — encoder switch — decoder switch — host B.
	sim := netsim.NewSim(37)
	newSW := func(name string, role zswitch.Role) (*netsim.Switch, *tofino.Pipeline) {
		prog, err := zswitch.New(zswitch.Config{
			Roles:   map[tofino.Port]zswitch.Role{0: role},
			PortMap: map[tofino.Port]tofino.Port{0: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := tofino.Load(tofino.Config{Name: name}, prog)
		if err != nil {
			t.Fatal(err)
		}
		return netsim.NewSwitch(sim, netsim.SwitchConfig{Name: name}, pl), pl
	}
	encSW, encPL := newSW("enc", zswitch.RoleEncode)
	decSW, decPL := newSW("dec", zswitch.RoleDecode)

	aNIC, encIn := netsim.NewLink(sim, netsim.LinkConfig{}, "a", "enc0")
	encOut, decIn := netsim.NewLink(sim, netsim.LinkConfig{}, "enc1", "dec0")
	decOut, bNIC := netsim.NewLink(sim, netsim.LinkConfig{}, "dec1", "b")
	hostA := netsim.NewHost(sim, netsim.HostConfig{Name: "a", MaxPPS: 500_000}, aNIC)
	hostB := netsim.NewHost(sim, netsim.HostConfig{Name: "b"}, bNIC)
	encSW.AttachPort(0, encIn)
	encSW.AttachPort(1, encOut)
	decSW.AttachPort(0, decIn)
	decSW.AttachPort(1, decOut)

	// Control plane spans both switches: decoder-side install first.
	prog, _ := zswitch.New(zswitch.Config{})
	ctl, err := controlplane.NewMulti(sim, controlplane.Config{}, []*tofino.Pipeline{encPL}, []*tofino.Pipeline{decPL}, prog.Codec().BasisBits())
	if err != nil {
		t.Fatal(err)
	}
	ctl.Bind(encSW)

	// Count what crosses the compressed hop.
	var hopBytes uint64
	origRecv := func(frame []byte, at netsim.Time) {}
	_ = origRecv

	var received [][]byte
	hostB.OnReceive = func(frame []byte, at netsim.Time) {
		cp := make([]byte, len(frame))
		copy(cp, frame)
		received = append(received, cp)
	}

	hostA.Stream(0, 0, func(i uint64) []byte {
		if int(i) >= len(frames) {
			return nil
		}
		return frames[i]
	})
	sim.Run()

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
	encStats := zswitch.ReadStats(encPL)
	decStats := zswitch.ReadStats(decPL)
	if encStats.RawToType3 == 0 {
		t.Fatal("no compression on the hop")
	}
	if decStats.Type3ToRaw != encStats.RawToType3 || decStats.Type2ToRaw != encStats.RawToType2 {
		t.Fatalf("hop accounting mismatch: enc=%+v dec=%+v", encStats, decStats)
	}
	if decStats.DecodeMiss != 0 {
		t.Fatalf("decode misses: %d", decStats.DecodeMiss)
	}
	hopBytes = encOut.TxBytes
	rawBytes := uint64(ds.Records()) * uint64(packet.HeaderLen+ds.RecordSize)
	if hopBytes >= rawBytes {
		t.Fatalf("hop carried %d bytes ≥ raw %d", hopBytes, rawBytes)
	}
	t.Logf("hop carried %.1f%% of raw frame bytes (learned %d bases)",
		100*float64(hopBytes)/float64(rawBytes), ctl.Stats().Learned)
}
