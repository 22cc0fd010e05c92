// Package controlplane implements ZipLine's controller: the Python/
// BfRt component of the paper (§5, §6) that owns the identifier pool
// and the dictionary tables in the switches.
//
// Responsibilities, mirroring the paper:
//
//   - receive digests reporting bases unknown to an encoder;
//   - pick an identifier: an unused one if available, otherwise
//     recycle the least recently used entry (as observed by the
//     data plane's idle timers);
//   - install the reverse (ID→basis) mapping in the decoder switch
//     FIRST, so compressed packets can always be uncompressed, then
//     the forward (basis→ID) mapping in the encoder switch;
//   - age entries out via TNA-style per-entry TTLs.
//
// The controller keeps one record per accepted basis, keyed by the
// basis bytes as digested: an install in flight until it goes live.
//
// Every step pays a modelled latency (digest delivery, decision time,
// one BfRt write per table touched). The defaults sum to the paper's
// measured learning delay: a new basis becomes compressible
// (1.77 ± 0.08) ms after its first appearance. Writes for distinct
// bases proceed concurrently — BfRt batches table programming — so
// learning throughput is not serialised on the write latency, only
// each mapping's visibility is delayed by it.
package controlplane
