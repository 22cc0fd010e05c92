// Package bitvec provides fixed-length bit vectors and MSB-first bit
// readers and writers.
//
// ZipLine's coding layer works on Hamming code words whose lengths
// (n = 2^m - 1 bits) are never multiples of eight, so every module
// above the CRC engine manipulates data at bit granularity. This
// package is the single home for that logic.
//
// Bit addressing convention: position 0 is the most significant bit
// of the first byte ("network order", matching how bits appear on the
// wire). The coding packages translate between positional indexing
// and polynomial coefficient indexing (where bit j is the coefficient
// of x^j and the highest-degree coefficient is transmitted first).
//
// Three functions move bits, all a machine word at a time: CopyBits
// for a run of any length, Uint and PutUint for a field of up to 64
// bits. Writer and Reader are cursors over them — a position, a bounds
// check and, for Writer, buffer growth — and Vector's Slice is a
// CopyBits call. Only WriteBit and ReadBit touch a single bit, because
// a single bit is what they are asked for.
package bitvec
