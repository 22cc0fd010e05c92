// Package tofino models the slice of the Barefoot Tofino / TNA
// architecture that ZipLine relies on (paper §5, §6):
//
//   - a match-action pipeline with a constant per-packet traversal
//     latency, independent of program complexity — the architectural
//     contract behind "any P4 program that compiles runs at line
//     rate";
//   - exact-match tables whose entries are installed and removed only
//     by the control plane, with per-entry idle timeouts (TTLs) that
//     notify the control plane, as TNA provides. Action data is
//     fixed-width bytes, ceil(ActionBits/8) per entry, as in P4; an
//     action a lookup returns is a view into the table, valid only
//     until the table's next control-plane write;
//   - digests, the data-plane→control-plane message channel used to
//     report unknown bases, queued in an arena the pipeline reuses
//     after each drain: a drained digest is a view, valid until the
//     next ProcessAppend;
//   - an SRAM resource model that bounds table sizes the way the
//     hardware does (the reason the paper settles on 15-bit IDs).
//
// The model is deliberately not a P4 interpreter: programs are Go
// code implementing the Program interface. A program builds its tables
// and hands them to Load, and it applies them only through the Ctx,
// which enforces the architecture's restrictions (single apply per
// table per pass, no data-plane table writes, bounded per-packet
// work). Counters are plain program state: on the hardware they live
// in dedicated stats SRAM outside the table budget, so the model has
// nothing of them to check.
package tofino
