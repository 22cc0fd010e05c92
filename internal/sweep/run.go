package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"zipline/internal/scenario"
)

// Options tunes sweep execution.
type Options struct {
	// Workers sizes the pool (0 = GOMAXPROCS). Each cell is one
	// self-contained deterministic simulation, so the matrix is
	// byte-identical for every worker count.
	Workers int
}

// Derived is the per-cell analysis row: the headline columns the
// paper's figures plot, computed from the cell's report.
type Derived struct {
	// CompressionRatio is encode payload bytes out over in.
	CompressionRatio float64 `json:"compression_ratio"`
	// DeliveryRate is delivered over offered frames.
	DeliveryRate float64 `json:"delivery_rate"`
	// GoodputGbps sums the receive goodput of every host.
	GoodputGbps float64 `json:"goodput_gbps"`
	// LearningDelayP50Ms/P99Ms are the control plane's per-basis
	// learning-delay percentiles (-1 when nothing was learned).
	LearningDelayP50Ms float64 `json:"learning_delay_p50_ms"`
	LearningDelayP99Ms float64 `json:"learning_delay_p99_ms"`
	// DigestOverhead is control-plane digest bytes per delivered
	// payload byte — the tax the learning loop adds to the network.
	DigestOverhead float64 `json:"digest_overhead"`
	// Events is the simulator's scheduled-event count (engine load).
	Events uint64 `json:"events"`
}

// CellResult is one completed grid point.
type CellResult struct {
	Index   int             `json:"index"`
	Name    string          `json:"name"`
	Params  []Param         `json:"params"`
	Seed    int64           `json:"seed"`
	Derived Derived         `json:"derived"`
	Report  scenario.Report `json:"report"`
}

// Matrix is the sweep's aggregated output: cells in grid order, so
// identical sweeps serialise to identical bytes no matter how many
// workers ran them.
type Matrix struct {
	Sweep string       `json:"sweep"`
	Seed  int64        `json:"seed"`
	Axes  []Axis       `json:"axes"`
	Cells []CellResult `json:"cells"`
}

// Run expands the sweep and executes every cell across the worker
// pool.
func Run(spec Spec, opt Options) (*Matrix, error) {
	cells, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	results := make([]CellResult, len(cells))
	cellErrs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				results[i], cellErrs[i] = runCell(cells[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(cellErrs...); err != nil {
		return nil, err
	}

	name := spec.Name
	if name == "" {
		name = "unnamed"
	}
	seed := spec.Seed
	if len(cells) > 0 {
		seed = cells[0].Seed
	}
	return &Matrix{Sweep: name, Seed: seed, Axes: spec.Axes, Cells: results}, nil
}

// runCell builds and runs one cell's scenario and derives its row.
func runCell(c Cell) (CellResult, error) {
	sc, err := scenario.Build(c.Spec)
	if err != nil {
		return CellResult{}, fmt.Errorf("cell %d (%s): %w", c.Index, c.Name, err)
	}
	rep := sc.Run()
	return CellResult{
		Index:   c.Index,
		Name:    c.Name,
		Params:  c.Params,
		Seed:    c.Seed,
		Derived: derive(rep),
		Report:  rep,
	}, nil
}

// derive computes the analysis columns from one report.
func derive(r scenario.Report) Derived {
	d := Derived{
		CompressionRatio:   r.CompressionRatio,
		DeliveryRate:       r.DeliveryRate,
		LearningDelayP50Ms: -1,
		LearningDelayP99Ms: -1,
		Events:             r.Events,
	}
	for _, h := range r.Hosts {
		d.GoodputGbps += h.GoodputGbps
	}
	if l := r.Learning; l != nil {
		if l.DelayN > 0 {
			d.LearningDelayP50Ms = l.DelayP50Ms
			d.LearningDelayP99Ms = l.DelayP99Ms
		}
		if r.Delivered.PayloadBytes > 0 {
			d.DigestOverhead = float64(l.DigestBytes) / float64(r.Delivered.PayloadBytes)
		}
	}
	return d
}

// MarshalIndent renders the matrix as stable, diff-friendly JSON (no
// map-keyed sections anywhere in the tree, so the byte stream is a
// pure function of sweep spec and seed).
func (m *Matrix) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteText renders the matrix for humans: one row per cell with the
// derived columns.
func (m *Matrix) WriteText(w io.Writer) {
	fmt.Fprintf(w, "sweep %s (seed %d): %d cells\n", m.Sweep, m.Seed, len(m.Cells))
	fmt.Fprintf(w, "%-4s %-40s %8s %9s %9s %8s %8s %10s %10s\n",
		"idx", "cell", "ratio", "delivery", "goodput", "p50ms", "p99ms", "digest/B", "events")
	for _, c := range m.Cells {
		name := c.Name
		if name == "" {
			name = "(base)"
		}
		pct := func(v float64) string {
			if v < 0 {
				return "-"
			}
			return fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(w, "%-4d %-40s %8.4f %9.4f %9.4f %8s %8s %10.5f %10d\n",
			c.Index, name, c.Derived.CompressionRatio, c.Derived.DeliveryRate,
			c.Derived.GoodputGbps, pct(c.Derived.LearningDelayP50Ms),
			pct(c.Derived.LearningDelayP99Ms), c.Derived.DigestOverhead, c.Derived.Events)
	}
}
