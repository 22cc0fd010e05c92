package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"zipline/internal/netsim"
	"zipline/internal/placement"
	"zipline/internal/scenario"
)

// MaxCells bounds a sweep's grid (a typo in an axis list should not
// schedule a million simulations).
const MaxCells = 4096

// Spec declares one sweep: a base scenario and the axes to vary.
type Spec struct {
	// Name identifies the sweep in the matrix.
	Name string `json:"name"`
	// Preset names a scenario preset as the base topology; Base
	// inlines a full scenario spec instead. Exactly one must be set.
	Preset string         `json:"preset,omitempty"`
	Base   *scenario.Spec `json:"base,omitempty"`
	// Seed overrides the base scenario's seed before per-cell
	// derivation (0 keeps the base's own seed).
	Seed int64 `json:"seed,omitempty"`
	// SeedStride derives each cell's seed as base + stride×index.
	// The default 0 runs every cell under the identical seed, so the
	// axes are the only difference between cells.
	SeedStride int64 `json:"seed_stride,omitempty"`
	// Axes span the grid; cell order is row-major with the first axis
	// slowest. An empty list is a single-cell sweep of the base.
	Axes []Axis `json:"axes"`
}

// Axis is one swept parameter and its values.
type Axis struct {
	// Param names the swept parameter (see ParamNames).
	Param string `json:"param"`
	// Values are the axis points, in sweep order.
	Values []Value `json:"values"`
	// Links restricts link-impairment params to these indices into
	// the scenario's Links list. Empty targets every switch-to-switch
	// link, or every link when the topology has none.
	Links []int `json:"links,omitempty"`
}

// Value is one axis point: a JSON number or string.
type Value struct {
	Num   float64
	Str   string
	IsStr bool
}

// Num64 builds a numeric axis value.
func Num64(v float64) Value { return Value{Num: v} }

// Str builds a string axis value.
func Str(s string) Value { return Value{Str: s, IsStr: true} }

// Nums builds a numeric axis value list.
func Nums(vs ...float64) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = Num64(v)
	}
	return out
}

// String renders the value the way cell names and matrices print it.
func (v Value) String() string {
	if v.IsStr {
		return v.Str
	}
	return strconv.FormatFloat(v.Num, 'g', -1, 64)
}

// MarshalJSON emits the bare number or string.
func (v Value) MarshalJSON() ([]byte, error) {
	if v.IsStr {
		return json.Marshal(v.Str)
	}
	return json.Marshal(v.Num)
}

// UnmarshalJSON accepts a number or a string.
func (v *Value) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		// json.Unmarshal of null into a float64 is a silent no-op;
		// reject it rather than run a grid cell at a zero the spec
		// never asked for.
		return fmt.Errorf("sweep: axis value is null")
	}
	var n float64
	if err := json.Unmarshal(data, &n); err == nil {
		*v = Value{Num: n}
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("sweep: axis value %s is neither number nor string", data)
	}
	*v = Value{Str: s, IsStr: true}
	return nil
}

// Param is one applied (param, value) coordinate of a cell.
type Param struct {
	Param string `json:"param"`
	Value Value  `json:"value"`
}

// Cell is one expanded grid point: a runnable scenario spec plus the
// coordinates that produced it.
type Cell struct {
	// Index is the cell's row-major position (first axis slowest) —
	// and its position in the matrix, independent of execution order.
	Index int `json:"index"`
	// Name joins the coordinates, e.g. "loss_prob=0.01,id_bits=8".
	Name string `json:"name"`
	// Params lists the coordinates in axis order.
	Params []Param `json:"params"`
	// Seed is the derived per-cell seed.
	Seed int64 `json:"seed"`

	// Spec is the fully-applied scenario (not serialised; the
	// coordinates reproduce it).
	Spec scenario.Spec `json:"-"`
}

// Load reads and expand-checks a sweep Spec from a JSON file. The
// check materialises the grid once and discards it — deliberate: a
// bad spec should fail at load (e.g. under -dump-spec, which never
// runs), and with the MaxCells cap the duplicate expansion before Run
// is noise next to a single cell's simulation.
func Load(path string) (Spec, error) {
	var spec Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("sweep: parsing %s: %w", path, err)
	}
	if _, err := Expand(spec); err != nil {
		return spec, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return spec, nil
}

// ResolveBase returns a deep copy of the sweep's base scenario — the
// named preset, or the inlined spec.
func (s Spec) ResolveBase() (scenario.Spec, error) {
	if (s.Preset == "") == (s.Base == nil) {
		return scenario.Spec{}, fmt.Errorf("exactly one of preset or base must be set")
	}
	if s.Preset != "" {
		base, ok := scenario.Preset(s.Preset)
		if !ok {
			return scenario.Spec{}, fmt.Errorf("unknown scenario preset %q", s.Preset)
		}
		return base, nil
	}
	return cloneScenario(*s.Base), nil
}

// cloneScenario deep-copies a scenario spec through JSON (the spec is
// designed to round-trip losslessly).
func cloneScenario(sp scenario.Spec) scenario.Spec {
	data, err := json.Marshal(sp)
	if err != nil {
		panic(fmt.Sprintf("sweep: cloning scenario: %v", err))
	}
	var out scenario.Spec
	if err := json.Unmarshal(data, &out); err != nil {
		panic(fmt.Sprintf("sweep: cloning scenario: %v", err))
	}
	return out
}

// ParamNames lists the sweepable parameters in display order.
func ParamNames() []string {
	return []string{
		"preset", "seed", "records", "pps", "workload", "trace",
		"placement", "k",
		"id_bits", "m", "t", "ttl_ms", "duration_ms",
		"loss_prob", "dup_prob", "reorder_prob", "reorder_delay_ns", "extra_latency_ns",
		"control_loss_prob", "restart_down_ms",
	}
}

var knownParams = func() map[string]bool {
	m := make(map[string]bool)
	for _, p := range ParamNames() {
		m[p] = true
	}
	return m
}()

// impairmentParams are the axes Axis.Links may scope.
var impairmentParams = map[string]bool{
	"loss_prob": true, "dup_prob": true, "reorder_prob": true,
	"reorder_delay_ns": true, "extra_latency_ns": true,
}

// Expand validates the sweep and materialises the grid: the cartesian
// product of the axes in row-major order (first axis slowest), each
// cell a deep copy of the base with its coordinates applied in axis
// order.
func Expand(s Spec) ([]Cell, error) {
	base, err := s.ResolveBase()
	if err != nil {
		return nil, err
	}
	if s.Seed != 0 {
		base.Seed = s.Seed
	}
	if base.Seed == 0 {
		base.Seed = 1
	}

	total := 1
	for i, ax := range s.Axes {
		if !knownParams[ax.Param] {
			return nil, fmt.Errorf("axis %d: unknown param %q (known: %s)", i, ax.Param, strings.Join(ParamNames(), ", "))
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("axis %d (%s): no values", i, ax.Param)
		}
		if ax.Param == "preset" && i != 0 {
			return nil, fmt.Errorf("axis %d: the preset axis replaces the whole topology and must come first", i)
		}
		if len(ax.Links) > 0 && !impairmentParams[ax.Param] {
			return nil, fmt.Errorf("axis %d: links only scopes link-impairment params, not %q", i, ax.Param)
		}
		for j := range s.Axes[:i] {
			if s.Axes[j].Param == ax.Param {
				return nil, fmt.Errorf("axis %d: param %q repeated", i, ax.Param)
			}
		}
		if total > MaxCells/len(ax.Values) {
			return nil, fmt.Errorf("grid exceeds %d cells", MaxCells)
		}
		total *= len(ax.Values)
	}

	cells := make([]Cell, 0, total)
	coords := make([]int, len(s.Axes))
	for idx := 0; idx < total; idx++ {
		// Decode idx into per-axis indices, first axis slowest.
		rem := idx
		for a := len(s.Axes) - 1; a >= 0; a-- {
			coords[a] = rem % len(s.Axes[a].Values)
			rem /= len(s.Axes[a].Values)
		}
		cell := Cell{Index: idx, Spec: cloneScenario(base)}
		var nameParts []string
		for a, ax := range s.Axes {
			p := Param{Param: ax.Param, Value: ax.Values[coords[a]]}
			cell.Params = append(cell.Params, p)
			nameParts = append(nameParts, p.Param+"="+p.Value.String())
			if err := ApplyParam(&cell.Spec, ax, p.Value); err != nil {
				return nil, fmt.Errorf("cell %d (%s): %w", idx, strings.Join(nameParts, ","), err)
			}
		}
		cell.Name = strings.Join(nameParts, ",")
		cell.Seed = cell.Spec.Seed + s.SeedStride*int64(idx)
		cell.Spec.Seed = cell.Seed
		if cell.Name != "" {
			cell.Spec.Name = base.Name + "/" + cell.Name
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// wantNum extracts a numeric axis value or explains the mismatch.
func wantNum(param string, v Value) (float64, error) {
	if v.IsStr {
		return 0, fmt.Errorf("param %q wants a number, got %q", param, v.Str)
	}
	return v.Num, nil
}

// wantInt additionally requires an integer.
func wantInt(param string, v Value) (int, error) {
	n, err := wantNum(param, v)
	if err != nil {
		return 0, err
	}
	if n != math.Trunc(n) {
		return 0, fmt.Errorf("param %q wants an integer, got %v", param, n)
	}
	return int(n), nil
}

// wantStr extracts a string axis value.
func wantStr(param string, v Value) (string, error) {
	if !v.IsStr {
		return "", fmt.Errorf("param %q wants a string, got %v", param, v.Num)
	}
	return v.Str, nil
}

// ApplyParam writes one coordinate into a scenario spec. It is the one
// place a setting name maps to a Spec field: sweep cells and the
// zipline-sim flag overrides both go through it.
func ApplyParam(sp *scenario.Spec, ax Axis, v Value) error {
	switch ax.Param {
	case "preset":
		name, err := wantStr(ax.Param, v)
		if err != nil {
			return err
		}
		repl, ok := scenario.Preset(name)
		if !ok {
			return fmt.Errorf("unknown scenario preset %q", name)
		}
		repl.Seed = sp.Seed
		*sp = repl
	case "seed":
		n, err := wantInt(ax.Param, v)
		if err != nil {
			return err
		}
		sp.Seed = int64(n)
	case "records":
		n, err := wantInt(ax.Param, v)
		if err != nil {
			return err
		}
		for i := range sp.Traffic {
			sp.Traffic[i].Records = n
		}
	case "pps":
		n, err := wantNum(ax.Param, v)
		if err != nil {
			return err
		}
		for i := range sp.Traffic {
			sp.Traffic[i].PPS = n
		}
	case "workload":
		name, err := wantStr(ax.Param, v)
		if err != nil {
			return err
		}
		for i := range sp.Traffic {
			sp.Traffic[i].Workload = name
		}
	case "trace":
		path, err := wantStr(ax.Param, v)
		if err != nil {
			return err
		}
		for i := range sp.Traffic {
			sp.Traffic[i].Workload = scenario.WorkloadTrace
			sp.Traffic[i].Trace = path
		}
	case "placement":
		name, err := wantStr(ax.Param, v)
		if err != nil {
			return err
		}
		if !placement.Strategy(name).Valid() {
			return fmt.Errorf("param %q: unknown strategy %q", ax.Param, name)
		}
		if sp.Topology == nil {
			return fmt.Errorf("param %q needs a base scenario with a topology block", ax.Param)
		}
		if sp.Placement == nil {
			sp.Placement = &scenario.PlacementSpec{}
		}
		sp.Placement.Strategy = name
	case "k":
		n, err := wantInt(ax.Param, v)
		if err != nil {
			return err
		}
		if sp.Topology == nil {
			return fmt.Errorf("param %q needs a base scenario with a topology block", ax.Param)
		}
		sp.Topology.K = n
	case "id_bits":
		n, err := wantInt(ax.Param, v)
		if err != nil {
			return err
		}
		sp.Codec.IDBits = n
	case "m":
		n, err := wantInt(ax.Param, v)
		if err != nil {
			return err
		}
		sp.Codec.M = n
	case "t":
		n, err := wantInt(ax.Param, v)
		if err != nil {
			return err
		}
		sp.Codec.T = n
	case "ttl_ms":
		n, err := wantNum(ax.Param, v)
		if err != nil {
			return err
		}
		sp.Controller.TTLNs = int64(n * 1e6)
	case "duration_ms":
		n, err := wantNum(ax.Param, v)
		if err != nil {
			return err
		}
		sp.DurationNs = int64(n * 1e6)
	case "control_loss_prob":
		n, err := wantNum(ax.Param, v)
		if err != nil {
			return err
		}
		if sp.Faults == nil {
			sp.Faults = &netsim.FaultSpec{}
		}
		sp.Faults.ControlLossProb = n
	case "restart_down_ms":
		n, err := wantNum(ax.Param, v)
		if err != nil {
			return err
		}
		if sp.Faults == nil || len(sp.Faults.Restarts) == 0 {
			return fmt.Errorf("param %q needs a base scenario with scheduled restarts", ax.Param)
		}
		for i := range sp.Faults.Restarts {
			sp.Faults.Restarts[i].DownNs = int64(n * 1e6)
		}
	case "loss_prob", "dup_prob", "reorder_prob", "reorder_delay_ns", "extra_latency_ns":
		n, err := wantNum(ax.Param, v)
		if err != nil {
			return err
		}
		return impairLinks(sp, ax, n)
	default:
		return fmt.Errorf("unknown param %q", ax.Param)
	}
	return nil
}

// impairLinks applies one impairment value to the axis's target links:
// the explicit indices, every switch-to-switch link, or — in
// topologies with no transit hop — every link.
func impairLinks(sp *scenario.Spec, ax Axis, v float64) error {
	idx := ax.Links
	if len(idx) == 0 {
		for i, l := range sp.Links {
			if strings.Contains(l.A, ":") && strings.Contains(l.B, ":") {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			for i := range sp.Links {
				idx = append(idx, i)
			}
		}
	}
	for _, i := range idx {
		if i < 0 || i >= len(sp.Links) {
			return fmt.Errorf("param %q: link index %d out of range (topology has %d links)", ax.Param, i, len(sp.Links))
		}
		l := &sp.Links[i]
		switch ax.Param {
		case "loss_prob":
			l.LossProb = v
		case "dup_prob":
			l.DupProb = v
		case "reorder_prob":
			l.ReorderProb = v
		case "reorder_delay_ns":
			l.ReorderDelayNs = int64(v)
		case "extra_latency_ns":
			l.ExtraLatencyNs = int64(v)
		}
	}
	return nil
}
