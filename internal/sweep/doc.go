// Package sweep runs families of scenarios: a declarative sweep spec
// names a base scenario and a set of axes (loss rate, dictionary
// size, TTL, workload, topology preset, …), expands to the cartesian
// grid of scenario Specs, and executes the cells concurrently across
// a worker pool. Every cell is a self-contained deterministic
// simulation, so N cells scale near-linearly with cores and the
// aggregated matrix is byte-identical for any worker count.
//
// This is the engine behind `zipline-sim sweep` and the multi-run
// families of the paper's evaluation (§7): compression ratio and
// learning delay are properties of parameter ranges, not single runs,
// and the network-wide picture of Packet-Level Network Compression
// (Beirami et al.) only emerges from such sweeps.
//
// ApplyParam is the one mapping from a param name to the scenario
// field it sets; zipline-sim's override flags go through it too.
package sweep
