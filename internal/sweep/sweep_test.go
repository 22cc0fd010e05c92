package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"zipline/internal/packet"
	"zipline/internal/pcap"
	"zipline/internal/scenario"
	"zipline/internal/trace"
)

// smokeSpec is a fast 2×2 grid for executor tests.
func smokeSpec() Spec {
	return Spec{
		Name:   "test",
		Preset: "chain3",
		Axes: []Axis{
			{Param: "records", Values: Nums(1_000)},
			{Param: "loss_prob", Values: Nums(0, 0.01)},
			{Param: "id_bits", Values: Nums(8, 15)},
		},
	}
}

// TestExpandGrid: cell count is the axis product, order is row-major
// with the first axis slowest, and params land in axis order.
func TestExpandGrid(t *testing.T) {
	spec := Spec{
		Preset: "chain3",
		Axes: []Axis{
			{Param: "loss_prob", Values: Nums(0, 0.01, 0.1)},
			{Param: "id_bits", Values: Nums(8, 15)},
		},
	}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	wantNames := []string{
		"loss_prob=0,id_bits=8", "loss_prob=0,id_bits=15",
		"loss_prob=0.01,id_bits=8", "loss_prob=0.01,id_bits=15",
		"loss_prob=0.1,id_bits=8", "loss_prob=0.1,id_bits=15",
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d: index %d", i, c.Index)
		}
		if c.Name != wantNames[i] {
			t.Errorf("cell %d: name %q, want %q", i, c.Name, wantNames[i])
		}
		if len(c.Params) != 2 || c.Params[0].Param != "loss_prob" || c.Params[1].Param != "id_bits" {
			t.Errorf("cell %d: params out of axis order: %+v", i, c.Params)
		}
		if c.Spec.Codec.IDBits != int(c.Params[1].Value.Num) {
			t.Errorf("cell %d: id_bits not applied: spec %d, param %v", i, c.Spec.Codec.IDBits, c.Params[1].Value)
		}
		// chain3's two inter-switch links carry the impairment; the
		// host links stay clean.
		want := c.Params[0].Value.Num
		if c.Spec.Links[1].LossProb != want || c.Spec.Links[2].LossProb != want {
			t.Errorf("cell %d: loss not on transit links: %+v", i, c.Spec.Links)
		}
		if c.Spec.Links[0].LossProb != 0 || c.Spec.Links[3].LossProb != 0 {
			t.Errorf("cell %d: loss leaked onto host links", i)
		}
	}
}

// TestExpandSeedDerivation: stride 0 keeps every cell on the base
// seed; a stride spreads them; a seed axis overrides the base.
func TestExpandSeedDerivation(t *testing.T) {
	spec := Spec{
		Preset: "chain3",
		Seed:   42,
		Axes:   []Axis{{Param: "loss_prob", Values: Nums(0, 0.01, 0.1)}},
	}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.Seed != 42 || c.Spec.Seed != 42 {
			t.Errorf("cell %d: seed %d, want 42 (stride 0)", i, c.Seed)
		}
	}

	spec.SeedStride = 7
	cells, err = Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if want := int64(42 + 7*i); c.Seed != want || c.Spec.Seed != want {
			t.Errorf("cell %d: seed %d, want %d", i, c.Seed, want)
		}
	}

	seedAxis := Spec{
		Preset: "chain3",
		Axes:   []Axis{{Param: "seed", Values: Nums(5, 6)}},
	}
	cells, err = Expand(seedAxis)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Seed != 5 || cells[1].Seed != 6 {
		t.Fatalf("seed axis ignored: %d, %d", cells[0].Seed, cells[1].Seed)
	}
}

// TestExpandRejects: structural sweep errors surface at expansion.
func TestExpandRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no base", Spec{Axes: []Axis{{Param: "loss_prob", Values: Nums(0)}}}},
		{"both bases", Spec{Preset: "chain3", Base: &scenario.Spec{}, Axes: nil}},
		{"unknown preset", Spec{Preset: "nope"}},
		{"unknown param", Spec{Preset: "chain3", Axes: []Axis{{Param: "warp_factor", Values: Nums(9)}}}},
		{"empty values", Spec{Preset: "chain3", Axes: []Axis{{Param: "loss_prob"}}}},
		{"repeated param", Spec{Preset: "chain3", Axes: []Axis{
			{Param: "loss_prob", Values: Nums(0)}, {Param: "loss_prob", Values: Nums(1)}}}},
		{"preset axis not first", Spec{Preset: "chain3", Axes: []Axis{
			{Param: "loss_prob", Values: Nums(0)}, {Param: "preset", Values: []Value{Str("single")}}}}},
		{"string for numeric param", Spec{Preset: "chain3", Axes: []Axis{
			{Param: "loss_prob", Values: []Value{Str("lots")}}}}},
		{"float for integer param", Spec{Preset: "chain3", Axes: []Axis{
			{Param: "id_bits", Values: Nums(8.5)}}}},
		{"number for string param", Spec{Preset: "chain3", Axes: []Axis{
			{Param: "workload", Values: Nums(3)}}}},
		{"link index out of range", Spec{Preset: "chain3", Axes: []Axis{
			{Param: "loss_prob", Values: Nums(0.1), Links: []int{9}}}}},
		{"links on non-impairment param", Spec{Preset: "chain3", Axes: []Axis{
			{Param: "records", Values: Nums(100), Links: []int{1}}}}},
		{"grid too large", Spec{Preset: "chain3", Axes: []Axis{
			{Param: "loss_prob", Values: Nums(make([]float64, 100)...)},
			{Param: "dup_prob", Values: Nums(make([]float64, 100)...)}}}},
		{"placement axis without topology", Spec{Preset: "chain3", Axes: []Axis{
			{Param: "placement", Values: []Value{Str("greedy")}}}}},
		{"k axis without topology", Spec{Preset: "chain3", Axes: []Axis{
			{Param: "k", Values: Nums(4)}}}},
		{"unknown placement strategy", Spec{Preset: "fat-tree", Axes: []Axis{
			{Param: "placement", Values: []Value{Str("psychic")}}}}},
	}
	for _, tc := range cases {
		if _, err := Expand(tc.spec); err == nil {
			t.Errorf("%s: expansion passed", tc.name)
		}
	}
}

// TestNullAxisValueRejected: a null in an axis value list must fail
// the load, not run a cell at an unrequested zero.
func TestNullAxisValueRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	spec := `{"name":"x","preset":"chain3","axes":[{"param":"loss_prob","values":[0.1,null]}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "null") {
		t.Fatalf("null axis value loaded: %v", err)
	}
}

// TestExpandPresetAxis: a preset axis swaps the whole topology per
// cell, and later axes apply on top of it.
func TestExpandPresetAxis(t *testing.T) {
	spec := Spec{
		Preset: "chain3",
		Axes: []Axis{
			{Param: "preset", Values: []Value{Str("single"), Str("chain3")}},
			{Param: "records", Values: Nums(500)},
		},
	}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells[0].Spec.Switches) != 1 || len(cells[1].Spec.Switches) != 3 {
		t.Fatalf("preset axis did not swap topologies: %d and %d switches",
			len(cells[0].Spec.Switches), len(cells[1].Spec.Switches))
	}
	for i, c := range cells {
		if c.Spec.Traffic[0].Records != 500 {
			t.Errorf("cell %d: records axis not applied over preset", i)
		}
	}
}

// TestPlacementAxes: the placement and k axes rewrite the topology
// block per cell, and the built-in placement preset spans every
// strategy × identifier width.
func TestPlacementAxes(t *testing.T) {
	cells, err := Expand(Spec{
		Preset: "fat-tree",
		Axes: []Axis{
			{Param: "placement", Values: []Value{Str("uniform"), Str("core")}},
			{Param: "k", Values: Nums(4, 8)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for i, want := range []struct {
		strategy string
		k        int
	}{{"uniform", 4}, {"uniform", 8}, {"core", 4}, {"core", 8}} {
		c := cells[i]
		if c.Spec.Placement.Strategy != want.strategy || c.Spec.Topology.K != want.k {
			t.Errorf("cell %d: placement=%s k=%d, want %s k=%d",
				i, c.Spec.Placement.Strategy, c.Spec.Topology.K, want.strategy, want.k)
		}
	}

	preset, ok := Preset("placement")
	if !ok {
		t.Fatal("placement sweep preset missing")
	}
	cells, err = Expand(preset)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 16 {
		t.Fatalf("placement preset expands to %d cells, want 16", len(cells))
	}
}

// TestRunWorkersIdentical: the acceptance bar — the matrix must be
// byte-identical between a serial and a 4-worker run of the same
// sweep.
func TestRunWorkersIdentical(t *testing.T) {
	spec := smokeSpec()
	serial, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := serial.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("workers=1 and workers=4 diverged:\n%s\n---\n%s", a, b)
	}
}

// TestRunDerivedColumns: the loss axis must show up in the derived
// delivery column, and lossless cells must deliver everything.
func TestRunDerivedColumns(t *testing.T) {
	m, err := Run(Spec{
		Preset: "chain3",
		Axes: []Axis{
			{Param: "records", Values: Nums(2_000)},
			{Param: "loss_prob", Values: Nums(0, 0.2)},
		},
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	clean, lossy := m.Cells[0].Derived, m.Cells[1].Derived
	if clean.DeliveryRate != 1 {
		t.Fatalf("lossless delivery = %v", clean.DeliveryRate)
	}
	if lossy.DeliveryRate >= clean.DeliveryRate {
		t.Fatalf("20%% loss did not reduce delivery: %v vs %v", lossy.DeliveryRate, clean.DeliveryRate)
	}
	for i, c := range m.Cells {
		d := c.Derived
		if d.CompressionRatio <= 0 || d.CompressionRatio >= 1 {
			t.Errorf("cell %d: compression ratio %v", i, d.CompressionRatio)
		}
		if d.LearningDelayP50Ms < 1.6 || d.LearningDelayP50Ms > 1.95 {
			t.Errorf("cell %d: p50 learning delay %v ms, want ≈1.77", i, d.LearningDelayP50Ms)
		}
		if d.Events == 0 || d.Events != c.Report.Events {
			t.Errorf("cell %d: events column %d (report %d)", i, d.Events, c.Report.Events)
		}
		if d.GoodputGbps <= 0 || d.DigestOverhead <= 0 {
			t.Errorf("cell %d: goodput %v, digest overhead %v", i, d.GoodputGbps, d.DigestOverhead)
		}
	}
}

// TestRunBuildErrorPropagates: a cell whose scenario cannot build
// fails the sweep with the cell named.
func TestRunBuildErrorPropagates(t *testing.T) {
	_, err := Run(Spec{
		Preset: "chain3",
		// TTL without a bounded duration is rejected by the scenario
		// validator.
		Axes: []Axis{{Param: "ttl_ms", Values: Nums(5)}},
	}, Options{Workers: 2})
	if err == nil {
		t.Fatal("sweep with unbuildable cell succeeded")
	}
	if !strings.Contains(err.Error(), "cell 0") {
		t.Fatalf("error does not name the cell: %v", err)
	}
}

// TestSpecJSONRoundTrip: a sweep spec survives disk, including mixed
// numeric and string axis values.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Name:   "rt",
		Preset: "chain3",
		Axes: []Axis{
			{Param: "workload", Values: []Value{Str("sensor"), Str("dns")}},
			{Param: "loss_prob", Values: Nums(0, 0.01), Links: []int{1}},
		},
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, loaded) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", spec, loaded)
	}
}

// TestTraceWorkloadSweep: a sweep over a tracegen-style pcap replays
// the capture through the grid — the trace-driven workload axis.
func TestTraceWorkloadSweep(t *testing.T) {
	pcapPath := writeSensorPcap(t, 1_500)
	m, err := Run(Spec{
		Name: "trace",
		Base: &scenario.Spec{
			Name: "trace-base",
			Hosts: []scenario.HostSpec{
				{Name: "sender", MaxPPS: 500_000},
				{Name: "sink"},
			},
			Switches: []scenario.SwitchSpec{
				{Name: "sw", Ports: []scenario.PortSpec{
					{Port: 0, Role: scenario.RoleEncode, Out: 1},
					{Port: 1, Role: scenario.RoleForward, Out: 0},
				}},
			},
			Links: []scenario.LinkSpec{
				{A: "sender", B: "sw:0"},
				{A: "sw:1", B: "sink"},
			},
			Traffic: []scenario.TrafficSpec{{
				From: "sender", To: "sink",
				Workload: scenario.WorkloadTrace, Trace: pcapPath,
			}},
		},
		Axes: []Axis{{Param: "loss_prob", Values: Nums(0, 0.05)}},
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range m.Cells {
		if c.Report.Offered.Frames != 1_500 {
			t.Errorf("cell %d: offered %d frames, want the full 1500-frame capture", i, c.Report.Offered.Frames)
		}
		if c.Report.Encode.RawToType3 == 0 {
			t.Errorf("cell %d: replayed trace never compressed", i)
		}
	}
	if m.Cells[1].Derived.DeliveryRate >= m.Cells[0].Derived.DeliveryRate {
		t.Fatal("loss axis inert under trace replay")
	}
}

// writeSensorPcap emits a small tracegen-equivalent capture.
func writeSensorPcap(t *testing.T, records int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sensor.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := pcap.NewWriter(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Sensor(trace.SensorConfig{Records: records, Seed: 1})
	src := packet.MAC{0x02, 0x5A, 0, 0, 0, 0x01}
	dst := packet.MAC{0x02, 0x5A, 0, 0, 0, 0x02}
	if err := tr.WritePcap(w, src, dst, 2_000); err != nil {
		t.Fatal(err)
	}
	return path
}
