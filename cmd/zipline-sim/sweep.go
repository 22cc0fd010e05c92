// The sweep subcommand: expand a declarative sweep spec to a grid of
// scenarios and run them concurrently across a worker pool.
//
// Usage:
//
//	zipline-sim sweep -preset loss-sensitivity -workers 4 -out matrix.json
//	zipline-sim sweep -spec sweep.json [-workers N] [-json]
//	zipline-sim sweep -preset dict-size -dump-spec > sweep.json
//	zipline-sim sweep -list
//
// A sweep spec is JSON:
//
//	{
//	  "name": "my-sweep",
//	  "preset": "chain3",            // or "base": {full scenario spec}
//	  "seed": 1,                     // optional; 0 keeps the base seed
//	  "seed_stride": 0,              // cell seed = seed + stride×index
//	  "axes": [
//	    {"param": "loss_prob", "values": [0, 0.01, 0.1]},
//	    {"param": "id_bits",   "values": [8, 15]}
//	  ]
//	}
//
// Cells expand row-major (first axis slowest) and every cell is an
// independent deterministic simulation, so the emitted matrix is
// byte-identical for any -workers value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"zipline/internal/sweep"
)

// marshalIndentJSON renders v with a trailing newline.
func marshalIndentJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// runSweep is the sweep subcommand's testable entry point.
func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zipline-sim sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	presetName := fs.String("preset", "loss-sensitivity", "built-in sweep (see -list)")
	specPath := fs.String("spec", "", "JSON sweep spec (overrides -preset)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	outPath := fs.String("out", "", "write the matrix JSON to this path")
	seed := fs.Int64("seed", 0, "override the sweep's base seed")
	records := fs.Int("records", 0, "override every traffic flow's record count in the base scenario")
	tracePath := fs.String("trace", "", "replay this pcap as every flow's workload in the base scenario")
	asJSON := fs.Bool("json", false, "emit the matrix as JSON on stdout")
	dumpSpec := fs.Bool("dump-spec", false, "print the selected sweep's spec as JSON and exit")
	list := fs.Bool("list", false, "list built-in sweeps and sweepable params, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, name := range sweep.PresetNames() {
			fmt.Fprintln(stdout, name)
		}
		fmt.Fprintf(stdout, "params: %s\n", strings.Join(sweep.ParamNames(), ", "))
		return 0
	}

	var swp sweep.Spec
	if *specPath != "" {
		loaded, err := sweep.Load(*specPath)
		if err != nil {
			fmt.Fprintf(stderr, "zipline-sim sweep: %v\n", err)
			return 1
		}
		swp = loaded
	} else {
		preset, ok := sweep.Preset(*presetName)
		if !ok {
			fmt.Fprintf(stderr, "zipline-sim sweep: unknown sweep preset %q (try -list)\n", *presetName)
			return 2
		}
		swp = preset
	}
	if *seed != 0 {
		swp.Seed = *seed
	}
	if *records > 0 || *tracePath != "" {
		// Flag overrides mutate the base scenario, so materialise it.
		// A whole-topology preset axis would silently replace that
		// mutated base in every cell — reject the combination instead.
		for _, ax := range swp.Axes {
			if ax.Param == "preset" {
				fmt.Fprintln(stderr, "zipline-sim sweep: -records/-trace cannot combine with a preset axis (the axis replaces the base scenario; set records/trace per preset in the spec instead)")
				return 2
			}
		}
		base, err := swp.ResolveBase()
		if err != nil {
			fmt.Fprintf(stderr, "zipline-sim sweep: %v\n", err)
			return 1
		}
		if err := applyOverrides(&base, []override{
			{*records > 0, "records", sweep.Num64(float64(*records))},
			{*tracePath != "", "trace", sweep.Str(*tracePath)},
		}); err != nil {
			fmt.Fprintf(stderr, "zipline-sim sweep: %v\n", err)
			return 2
		}
		swp.Preset, swp.Base = "", &base
	}

	if *dumpSpec {
		data, err := marshalIndentJSON(swp)
		if err != nil {
			fmt.Fprintf(stderr, "zipline-sim sweep: %v\n", err)
			return 1
		}
		stdout.Write(data)
		return 0
	}

	matrix, err := sweep.Run(swp, sweep.Options{Workers: *workers})
	if err != nil {
		fmt.Fprintf(stderr, "zipline-sim sweep: %v\n", err)
		return 1
	}

	if *outPath != "" {
		data, err := matrix.MarshalIndent()
		if err != nil {
			fmt.Fprintf(stderr, "zipline-sim sweep: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "zipline-sim sweep: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "sweep %s: %d cells -> %s\n", matrix.Sweep, len(matrix.Cells), *outPath)
		return 0
	}
	if *asJSON {
		data, err := matrix.MarshalIndent()
		if err != nil {
			fmt.Fprintf(stderr, "zipline-sim sweep: %v\n", err)
			return 1
		}
		stdout.Write(data)
		return 0
	}
	matrix.WriteText(stdout)
	return 0
}
