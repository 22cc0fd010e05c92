// Package zipline is a Go implementation of ZipLine, the in-network
// compression system of Vaucher et al. (CoNEXT '20): generalized
// deduplication (GD) with Hamming-code transformations computable by
// a switch CRC engine, a basis dictionary with short identifiers, and
// the packet formats and control-plane protocol that let a pair of
// programmable switches compress a link transparently at line rate.
//
// Two layers of API:
//
//   - Codec: chunk-level GD — Split a fixed-size chunk into
//     (basis, deviation, extra) and Merge it back losslessly.
//   - Writer/Reader: streaming GD compression of arbitrary byte
//     streams with an LRU basis dictionary, the file/IoT-gateway use
//     case of the GD literature the paper builds on. One reusable
//     pair serves every mode, selected by functional options:
//     WithWorkers picks serial or sharded-parallel engines, WithDict
//     shares a pre-trained basis dictionary (TrainDict) across any
//     number of encoders, Reset re-serves a pooled instance with zero
//     steady-state allocations, and EncodeAll/DecodeAll are the
//     concurrency-safe one-shot paths for short streams.
//
// Deployment surfaces build on the streaming layer: zipline/ziphttp
// wraps it as HTTP middleware, client transport and a TCP proxy pair
// (the paper's switch pair as userspace infrastructure), and
// cmd/zipline-proxy ships the proxy as a binary. The in-network system
// itself, switch pipelines and control plane, runs on the
// internal/scenario testbed (cmd/zipline-sim); this package does not
// import it.
//
// Invariants the tests pin, in rough order of importance:
// losslessness (every Split/Merge and Writer/Reader pair is a
// bijection, property-tested against random and adversarial inputs);
// determinism (identical bytes out for identical input, seed and
// config, for any worker count); and zero steady-state allocations on
// the pooled Reset hot path and the serial Reader (alloc-pinning
// tests plus the ziplint static checker). The container format is
// versioned (v1–v4) and every released version stays readable.
//
// The implementation details live in internal/ packages (bit-level
// CRC engine, Hamming codes, the Tofino pipeline model, the network
// simulator), each with a doc.go stating its paper section and
// invariants; the README's "How the repo maps to the paper" section is
// the system inventory.
package zipline
