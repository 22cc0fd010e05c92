// Command zipline-sim runs a declarative network scenario — hosts,
// ZipLine switches, impaired links, paper workloads — on the
// deterministic simulator and prints a metrics report, reproducing
// the paper's §7 end-to-end experiments beyond the two-server
// testbed.
//
// Usage:
//
//	zipline-sim -preset lossy-chain3 [-seed N] [-records N] [-duration MS] [-json]
//	zipline-sim -scenario spec.json [-json]
//	zipline-sim -topo fat-tree:k=4 -placement greedy     # generated datacenter topology
//	zipline-sim -topo fat-tree:k=8,hosts=32 -flows 128   # 1024-host churn
//	zipline-sim -preset chain3 -trace sensor.pcap        # replay a tracegen capture
//	zipline-sim -preset chain3 -control-loss 0.2 -restart dec@10+2   # inject faults
//	zipline-sim -preset chain3 -dump-spec   > my-scenario.json
//	zipline-sim -list
//	zipline-sim sweep -spec sweep.json -workers 4 -out matrix.json
//
// The sweep subcommand (see sweep.go) expands a declarative sweep
// spec into a grid of scenarios and runs them concurrently.
//
// The override flags are sweep params (-duration is duration_ms,
// -control-loss control_loss_prob) applied to the base through
// sweep.ApplyParam, the code that writes sweep cells. Only -topo,
// -flows and -restart have no sweep param and their own code.
//
// The same seed always produces the identical report, so a saved
// report is a regression fixture for the whole engine. To reproduce
// the paper's (1.77 ± 0.08) ms learning delay:
//
//	zipline-sim -preset lossy-chain3
//
// and read the "delay" line: the control plane's mean per-basis
// learning delay models DigestLatency + Decision + 2×Write =
// 0.15 + 0.02 + 1.6 ms = 1.77 ms, jitter ±3% per stage, and link
// impairments must not move it (BfRt writes don't traverse the lossy
// data path).
//
// # Metrics schema (-json)
//
// The JSON report is scenario.Report:
//
//	scenario           string   scenario name
//	seed               int      the run's seed
//	elapsed_ms         float    simulated virtual time
//	offered            {frames, payload_bytes}   generated load
//	delivered          {frames, payload_bytes}   sum over all hosts
//	delivery_rate      float    delivered/offered frames (<1 loss, >1 dup)
//	encode             zswitch counter snapshot summed over switches
//	compression_ratio  float    encode payload bytes out ÷ in (exact)
//	learning           {learned, recycled, expired, digests_seen,
//	                    digest_bytes, delay_n, delay_mean_ms,
//	                    delay_p50_ms, delay_p90_ms, delay_p99_ms}
//	faults             only in fault-armed runs: {stranded_compressed,
//	                    bypass_frames, retransmits, abandoned,
//	                    stale_digests, resyncs, recovery_time_ns,
//	                    control_msgs_lost, switch_down_drops};
//	                    stranded_compressed is guaranteed zero
//	hosts[]            per-host rx: frames by type, goodput_gbps,
//	                    learning_delay_ms (first t3 − first t2, -1 n/a)
//	links[]            per-direction tx: frames, bytes, payload_bytes,
//	                    lost, duplicated, reordered, down_drops
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"zipline/internal/netsim"
	"zipline/internal/scenario"
	"zipline/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point with a single exit path.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "sweep" {
		return runSweep(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("zipline-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	presetName := fs.String("preset", "lossy-chain3", "built-in scenario (see -list)")
	specPath := fs.String("scenario", "", "JSON scenario spec (overrides -preset)")
	seed := fs.Int64("seed", 0, "override the scenario seed")
	topoFlag := fs.String("topo", "", "generate the topology, e.g. \"fat-tree:k=4\", \"fat-tree:k=8,hosts=32\", \"isp:switches=16\"")
	placementFlag := fs.String("placement", "", "dictionary-placement strategy for generated topologies: uniform, greedy, edge, core")
	flows := fs.Int("flows", 0, "churn flow count for generated topologies (default 64)")
	records := fs.Int("records", 0, "override every traffic flow's record count")
	tracePath := fs.String("trace", "", "replay this pcap (e.g. tracegen output) as every flow's workload")
	durationMs := fs.Int64("duration", 0, "override the bounded run length in milliseconds")
	controlLoss := fs.Float64("control-loss", -1, "control-channel loss probability in [0,1) (arms the fault model)")
	restarts := fs.String("restart", "", "schedule switch restarts, e.g. \"dec@10+2,enc@20+5\" (switch@crash-ms+down-ms)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	dumpSpec := fs.Bool("dump-spec", false, "print the selected scenario's spec as JSON and exit")
	list := fs.Bool("list", false, "list built-in scenarios and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, name := range scenario.PresetNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	var spec scenario.Spec
	if *specPath != "" {
		loaded, err := scenario.Load(*specPath)
		if err != nil {
			fmt.Fprintf(stderr, "zipline-sim: %v\n", err)
			return 1
		}
		spec = loaded
	} else {
		preset, ok := scenario.Preset(*presetName)
		if !ok {
			fmt.Fprintf(stderr, "zipline-sim: unknown preset %q (try -list)\n", *presetName)
			return 2
		}
		spec = preset
	}
	if *topoFlag != "" {
		t, err := parseTopo(*topoFlag)
		if err != nil {
			fmt.Fprintf(stderr, "zipline-sim: -topo: %v\n", err)
			return 2
		}
		// A generated topology replaces any explicit declarations
		// wholesale; flows and placement keep their blocks (or the
		// defaults) on top of the new graph.
		spec.Topology = t
		spec.Hosts, spec.Switches, spec.Links, spec.Traffic = nil, nil, nil, nil
		spec.Faults = nil
		spec.Name = *topoFlag
	}
	// Sweep params, on top of the generated topology (-seed commutes
	// with -topo and -flows with the table, so the order is unchanged).
	if err := applyOverrides(&spec, []override{
		{*seed != 0, "seed", sweep.Num64(float64(*seed))},
		{*placementFlag != "", "placement", sweep.Str(*placementFlag)},
		{*records > 0, "records", sweep.Num64(float64(*records))},
		{*tracePath != "", "trace", sweep.Str(*tracePath)},
		{*durationMs > 0, "duration_ms", sweep.Num64(float64(*durationMs))},
		{*controlLoss >= 0, "control_loss_prob", sweep.Num64(*controlLoss)},
	}); err != nil {
		fmt.Fprintf(stderr, "zipline-sim: %v\n", err)
		return 2
	}
	if *flows > 0 {
		if spec.Flows == nil {
			spec.Flows = &scenario.FlowsSpec{}
		}
		spec.Flows.Count = *flows
	}
	if *restarts != "" {
		scheduled, err := parseRestarts(*restarts)
		if err != nil {
			fmt.Fprintf(stderr, "zipline-sim: -restart: %v\n", err)
			return 2
		}
		if spec.Faults == nil {
			spec.Faults = &netsim.FaultSpec{}
		}
		spec.Faults.Restarts = scheduled
	}

	if *dumpSpec {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec); err != nil {
			fmt.Fprintf(stderr, "zipline-sim: %v\n", err)
			return 1
		}
		return 0
	}

	sc, err := scenario.Build(spec)
	if err != nil {
		fmt.Fprintf(stderr, "zipline-sim: %v\n", err)
		return 1
	}
	report := sc.Run()

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "zipline-sim: %v\n", err)
			return 1
		}
		return 0
	}
	report.WriteText(stdout)
	return 0
}

// override is one flag as the sweep param of the same meaning; set
// reports whether the flag was given.
type override struct {
	set   bool
	param string
	value sweep.Value
}

// applyOverrides applies the given flags to sp in order.
func applyOverrides(sp *scenario.Spec, overrides []override) error {
	for _, o := range overrides {
		if o.set {
			if err := sweep.ApplyParam(sp, sweep.Axis{Param: o.param}, o.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseTopo parses the -topo flag: kind[:key=val,...], e.g.
// "fat-tree:k=8,hosts=32" or "isp:switches=16".
func parseTopo(s string) (*scenario.TopologySpec, error) {
	kind, opts, _ := strings.Cut(s, ":")
	t := &scenario.TopologySpec{Kind: kind}
	if opts == "" {
		return t, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("%q: want key=value", kv)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("%q: bad value %q", kv, val)
		}
		switch key {
		case "k":
			t.K = n
		case "hosts":
			t.HostsPerEdge = n
		case "switches":
			t.Switches = n
		default:
			return nil, fmt.Errorf("unknown topology option %q (want k, hosts, switches)", key)
		}
	}
	return t, nil
}

// parseRestarts parses the -restart flag: comma-separated
// "switch@crash-ms+down-ms" events ("+down-ms" optional, defaulting to
// the schedule-level reboot time).
func parseRestarts(s string) ([]netsim.RestartSpec, error) {
	var out []netsim.RestartSpec
	for _, ev := range strings.Split(s, ",") {
		name, times, ok := strings.Cut(ev, "@")
		if !ok || name == "" {
			return nil, fmt.Errorf("%q: want switch@crash-ms[+down-ms]", ev)
		}
		atStr, downStr, hasDown := strings.Cut(times, "+")
		at, err := strconv.ParseFloat(atStr, 64)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("%q: bad crash time %q", ev, atStr)
		}
		r := netsim.RestartSpec{Switch: name, AtNs: int64(at * 1e6)}
		if hasDown {
			down, err := strconv.ParseFloat(downStr, 64)
			if err != nil || down < 0 {
				return nil, fmt.Errorf("%q: bad down time %q", ev, downStr)
			}
			r.DownNs = int64(down * 1e6)
		}
		out = append(out, r)
	}
	return out, nil
}
