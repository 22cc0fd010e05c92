// Package tofino models the slice of the Barefoot Tofino / TNA
// architecture that ZipLine relies on (paper §5, §6):
//
//   - a match-action pipeline with a constant per-packet traversal
//     latency, independent of program complexity — the architectural
//     contract behind "any P4 program that compiles runs at line
//     rate";
//   - exact-match tables whose entries are installed and removed only
//     by the control plane, with per-entry idle timeouts (TTLs) that
//     notify the control plane, as TNA provides;
//   - digests, the data-plane→control-plane message channel used to
//     report unknown bases;
//   - counters;
//   - an SRAM resource model that bounds table sizes the way the
//     hardware does (the reason the paper settles on 15-bit IDs).
//
// The model is deliberately not a P4 interpreter: programs are Go
// code implementing the Program interface, but they may only touch
// state through the Ctx handles, which enforce the architecture's
// restrictions (single apply per table per pass, no data-plane table
// writes, bounded per-packet work).
package tofino
