// Package zswitch is the ZipLine switch program: the P4₁₆/TNA data
// plane of the paper (§4, §5) expressed against the tofino model.
//
// Per ingress port the program acts in one of three roles:
//
//   - Encode (paper Figure 1): compute the chunk's syndrome with the
//     CRC engine, flip the indicated bit, truncate to the basis; if
//     the basis→ID table knows the basis, emit a compressed type 3
//     packet, otherwise emit a type 2 packet and digest the unknown
//     basis up to the control plane.
//   - Decode (paper Figure 2): recover the basis (for type 3 via the
//     ID→basis table), restore the parity bits by running the
//     zero-padded basis through the same CRC, and flip the
//     syndrome-indicated bit to reconstruct the original chunk.
//   - Forward: plain switching, the "no op" baseline of §7.
//
// The program never writes its own tables: unknown bases travel to
// the control plane as digests and mappings come back through the
// control-plane API, with the latency consequences §7 measures
// (the 1.77 ms learning delay).
//
// The per-packet path is allocation-free in steady state: the basis
// buffer and the output frame live in program-owned scratch that each
// Process call reuses, table lookups match on raw header bytes, and
// the counters are plain fields of the program — mirroring how the
// hardware pipeline touches no allocator at line rate. The
// consequence, as on hardware, is that emitted frames are valid only
// until the next packet enters the same program; callers that keep a
// frame longer must copy it (netsim.Switch copies into a frame arena).
package zswitch
