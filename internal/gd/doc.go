// Package gd implements generalized deduplication (GD), the
// compression algorithm at the heart of ZipLine (paper §2, §4).
//
// GD first applies an invertible transformation that splits a data
// word into a pair (basis, deviation): many similar words share one
// basis and differ only in the small deviation. The system then
// deduplicates bases against a dictionary while keeping each word's
// deviation, so the original data can always be reconstructed.
//
// The paper's transformation is a Hamming-code decode step whose
// syndrome doubles as the deviation; this package also provides a
// bit-extraction transform in the spirit of the bit-swapping
// future-work reference [37]. The BCH transform from the paper's
// future work lives in zipline/internal/bch and plugs into the same
// interface. Classic deduplication, the baseline, needs no transform:
// baseline.DedupSize with a nil codec keys whole records.
//
// Dictionary and Frozen (dict.go) keep their bases in a slab.Index: the
// bytes packed at a fixed stride and a hash per entry, found through one
// open-addressed index. A Dictionary keeps two LRU links per entry beside
// it. A call hashes its basis once, and a miss that finds a free
// identifier probes once; a miss, an eviction and a Reset allocate
// nothing. The byte views TouchID returns and the vectors LookupIDTouch
// and Insert return are its storage and scratch, valid until its next
// mutating call.
package gd
