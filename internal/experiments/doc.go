// Package experiments reproduces every table and figure of the
// paper's evaluation (§7) on the simulated testbed, plus the ablation
// studies (padding, m sweep, dictionary size, GD versus plain
// deduplication). Each experiment is a pure function returning
// structured results; cmd/zipline-bench renders them in paper layout
// and bench_test.go wraps them as Go benchmarks.
//
// Two invariants hold across the suite. Determinism: every experiment
// is a function of its seed — same seed, same tables, bit for bit —
// so published numbers are reproducible and a diff in zipline-bench's
// output (pinned by cmd/zipline-bench/testdata/quick-seed1.golden) is
// meaningful. One harness: Figures 3, 4 and 5, the learning-delay
// measurement and InlineLink (the in-network deployment
// examples/inlinecompression shows) all run on internal/scenario — the
// two-server, one-switch testbed is its smallest spec (fixture.go) —
// so nothing here wires a switch, link, host or control plane by
// hand. The package times nothing on the wall clock; software
// throughput is the repo benchmark's job (bench/).
package experiments
