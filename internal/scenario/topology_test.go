package scenario

import (
	"bytes"
	"fmt"
	"testing"
)

// TestFatTreePresetDelivers: the generated k=4 fat-tree under churn
// must deliver every offered frame, decompressed by arrival, with one
// identifier-ranged controller per edge switch and a placement
// section in the report.
func TestFatTreePresetDelivers(t *testing.T) {
	sc := mustBuild(t, preset(t, "fat-tree"))
	r := sc.Run()
	if r.DeliveryRate != 1 {
		t.Fatalf("delivery rate %.4f, want 1", r.DeliveryRate)
	}
	for _, h := range r.Hosts {
		if h.Type2Frames+h.Type3Frames > 0 {
			t.Fatalf("host %s received %d compressed frames", h.Host, h.Type2Frames+h.Type3Frames)
		}
	}
	if r.Encode.RawToType3 == 0 {
		t.Fatal("no traffic was compressed")
	}
	if got, want := len(sc.ctls), 8; got != want {
		t.Fatalf("controllers = %d, want one per edge switch (%d)", got, want)
	}
	p := r.Placement
	if p == nil {
		t.Fatal("no placement section in the report")
	}
	if p.Strategy != "greedy" || len(p.Encoders) != 8 {
		t.Fatalf("placement = %s with %d encoders, want greedy with 8", p.Strategy, len(p.Encoders))
	}
	for _, e := range p.Encoders {
		if e.ProfileDigests == 0 {
			t.Errorf("encoder %s kept a share without profiling signal", e.Switch)
		}
	}
}

// TestGreedyBeatsUniform is the placement subsystem's headline claim:
// under scarce identifiers, weighting shares by observed redundancy
// compresses better than spreading them over switches that only see
// already-compressed traffic.
func TestGreedyBeatsUniform(t *testing.T) {
	run := func(strategy string) float64 {
		spec := preset(t, "fat-tree")
		spec.Codec.IDBits = 8
		spec.Placement.Strategy = strategy
		return mustBuild(t, spec).Run().CompressionRatio
	}
	greedy, uniform := run("greedy"), run("uniform")
	if greedy >= uniform {
		t.Fatalf("greedy ratio %.4f not below uniform %.4f", greedy, uniform)
	}
}

// TestISPTopologyDelivers: the seeded ISP generator expands and runs
// end to end.
func TestISPTopologyDelivers(t *testing.T) {
	spec := Spec{
		Name:     "isp-test",
		Topology: &TopologySpec{Kind: TopoISP, Switches: 10},
		Flows:    &FlowsSpec{Count: 16, MeanRecords: 50},
	}
	r := mustBuild(t, spec).Run()
	if r.DeliveryRate != 1 {
		t.Fatalf("delivery rate %.4f, want 1", r.DeliveryRate)
	}
	if r.Placement == nil || r.Placement.Strategy != "edge" {
		t.Fatalf("placement = %+v, want the edge default", r.Placement)
	}
}

// TestFatTreeChurnAtScale: the 1024-host k=8 preset must complete and
// deliver everything — the event loop's width test.
func TestFatTreeChurnAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-host build; run without -short")
	}
	r := mustBuild(t, preset(t, "fat-tree-churn")).Run()
	if got, want := len(r.Hosts), 1024; got != want {
		t.Fatalf("hosts = %d, want %d", got, want)
	}
	if r.DeliveryRate != 1 {
		t.Fatalf("delivery rate %.4f, want 1", r.DeliveryRate)
	}
	if r.Encode.RawToType3 == 0 {
		t.Fatal("no traffic was compressed")
	}
}

// TestFatTreeChurnSeedHammer: sixteen seeds of fat-tree churn, each
// run twice, must reproduce byte-for-byte. This is the race job's
// determinism hammer for the event loop.
func TestFatTreeChurnSeedHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("32 churn runs; run without -short")
	}
	for seed := int64(1); seed <= 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func() []byte {
				spec := preset(t, "fat-tree")
				spec.Seed = seed
				return encodeReport(t, mustBuild(t, spec).Run())
			}
			if a, b := run(), run(); !bytes.Equal(a, b) {
				t.Fatal("same seed produced different reports")
			}
		})
	}
}

// TestTopologySpecValidation: the block-level misuse cases fail
// loudly.
func TestTopologySpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"flows without topology", Spec{Name: "x", Flows: &FlowsSpec{Count: 1}}},
		{"placement without topology", Spec{Name: "x", Placement: &PlacementSpec{}}},
		{"unknown kind", Spec{Name: "x", Topology: &TopologySpec{Kind: "torus"}}},
		{"unknown strategy", Spec{Name: "x", Topology: &TopologySpec{Kind: TopoFatTree},
			Placement: &PlacementSpec{Strategy: "psychic"}}},
		{"trace flows", Spec{Name: "x", Topology: &TopologySpec{Kind: TopoFatTree},
			Flows: &FlowsSpec{Workload: WorkloadTrace}}},
		{"explicit hosts alongside topology", Spec{Name: "x", Topology: &TopologySpec{Kind: TopoFatTree},
			Hosts: []HostSpec{{Name: "h"}}}},
	}
	for _, c := range cases {
		if _, err := Build(c.spec); err == nil {
			t.Errorf("%s: Build accepted the spec", c.name)
		}
	}
}
