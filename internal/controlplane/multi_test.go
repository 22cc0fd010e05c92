package controlplane

import (
	"math/rand"
	"testing"

	"zipline/internal/netsim"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

// loadPipeline builds an encode- or decode-role pipeline for direct
// (linkless) controller tests.
func loadPipeline(t *testing.T, role zswitch.Role) (*zswitch.Program, *tofino.Pipeline) {
	t.Helper()
	prog, err := zswitch.New(zswitch.Config{
		Roles:   map[tofino.Port]zswitch.Role{0: role},
		PortMap: map[tofino.Port]tofino.Port{0: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tofino.Load(tofino.Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, pl
}

// TestMultiSwitchInstallOrder: with two encoders and two decoders,
// one digest must install the mapping in every decoder before any
// encoder, and end with all four pipelines programmed.
func TestMultiSwitchInstallOrder(t *testing.T) {
	sim := netsim.NewSim(3)
	prog, enc1 := loadPipeline(t, zswitch.RoleEncode)
	_, enc2 := loadPipeline(t, zswitch.RoleEncode)
	_, dec1 := loadPipeline(t, zswitch.RoleDecode)
	_, dec2 := loadPipeline(t, zswitch.RoleDecode)

	ctl, err := NewMulti(sim, Config{},
		[]*tofino.Pipeline{enc1, enc2}, []*tofino.Pipeline{dec1, dec2},
		prog.Codec().BasisBits())
	if err != nil {
		t.Fatal(err)
	}

	chunk := make([]byte, prog.Codec().ChunkBytes())
	chunk[0] = 0x5A
	s, err := prog.Codec().SplitChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	key := string(s.Basis.Bytes())
	sim.At(0, func() { ctl.handleDigest(enc1, key, 0, len(key), 0) })

	// Invariant checked at every event boundary: an encoder never
	// knows a basis whose ID any decoder cannot resolve.
	probed := 0
	checkRecords := recordChecker(t, ctl)
	check := func() {
		checkRecords()
		for _, enc := range []*tofino.Pipeline{enc1, enc2} {
			encTbl, _ := zswitch.Tables(enc)
			if _, hit := encTbl.Get(s.Basis.Bytes()); !hit {
				continue
			}
			probed++
			for _, dec := range []*tofino.Pipeline{dec1, dec2} {
				_, decTbl := zswitch.Tables(dec)
				if decTbl.Len() == 0 {
					t.Fatal("encoder mapping live before decoder install")
				}
			}
		}
	}
	for sim.Pending() > 0 {
		sim.RunUntil(sim.Now() + netsim.Microsecond)
		check()
	}
	if probed == 0 {
		t.Fatal("the probe never saw the basis in an encoder table: it checked nothing")
	}

	if ctl.Stats().Learned != 1 {
		t.Fatalf("learned = %d", ctl.Stats().Learned)
	}
	for i, pl := range []*tofino.Pipeline{enc1, enc2} {
		tbl, _ := zswitch.Tables(pl)
		if tbl.Len() != 1 {
			t.Fatalf("encoder %d has %d mappings, want 1", i, tbl.Len())
		}
	}
	for i, pl := range []*tofino.Pipeline{dec1, dec2} {
		_, tbl := zswitch.Tables(pl)
		if tbl.Len() != 1 {
			t.Fatalf("decoder %d has %d mappings, want 1", i, tbl.Len())
		}
	}
}

// TestLearningDelaySample: the controller's per-basis delay sample
// must model the paper's ≈1.77 ms when digests arrive through a
// bound switch.
func TestLearningDelaySample(t *testing.T) {
	tb := newTestbed(t, zswitch.Config{}, Config{})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		payload := make([]byte, 32)
		rng.Read(payload)
		frame := rawFrame(payload)
		tb.sim.At(netsim.Time(i)*netsim.Microsecond, func() { tb.a.Send(frame) })
	}
	tb.sim.Run()

	d := tb.ctl.LearningDelayMs()
	if d.N() != 8 {
		t.Fatalf("delay sample n = %d, want 8", d.N())
	}
	if m := d.Mean(); m < 1.6 || m > 1.95 {
		t.Fatalf("mean learning delay = %.3f ms, want ≈1.77", m)
	}
	if tb.ctl.Stats().DigestBytes == 0 {
		t.Fatal("digest byte volume not counted")
	}
}
