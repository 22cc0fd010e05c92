// Package experiments reproduces every table and figure of the
// paper's evaluation (§7) on the simulated testbed, plus the ablation
// studies (padding, m sweep, dictionary size, GD versus plain
// deduplication) the README's Benchmarks section points at. Each
// experiment is a pure function returning structured results;
// cmd/zipline-bench renders them in paper layout and bench_test.go
// wraps them as Go benchmarks.
//
// Two invariants hold across the suite. Determinism: every experiment
// is a function of its seed — same seed, same tables, bit for bit —
// so published numbers are reproducible and diffs in EXPERIMENTS.md
// are meaningful. Measured, not asserted: PerfSuite rows (dataplane
// pkts/s, encoder MB/s, the ziphttp gateway and proxy paths) are
// wall-clock measurements with allocs/op from the runtime, written as
// the committed BENCH_PR*.json baselines that CI's perf-regression
// gate compares against.
package experiments
