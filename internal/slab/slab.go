// Package slab is the exact-match key store under the stream's basis
// dictionary (internal/gd) and the switch model's match-action tables
// (internal/tofino): fixed-length keys packed at a fixed stride, one
// stored hash per entry, and an open-addressed index over them —
// linear probing, at most half full, backward-shift deletion (no
// tombstones, so a probe ends at the first empty slot).
//
// Entries are numbered densely from 0 in the order they were added; a
// caller keeps the rest of each entry (LRU links, action bytes, idle
// timers) in slices of its own, indexed the same way, and mirrors the
// one move Delete makes. The index never hashes a key itself after Add:
// deletion and growth place entries by their stored hash.
package slab

import (
	"bytes"
	"hash/maphash"
	"slices"
)

// seed keys every hash in the process. Probe order may differ run to
// run; nothing observable depends on it.
var seed = maphash.MakeSeed()

// Hash returns the hash an Index files key under.
func Hash(key []byte) uint64 { return maphash.Bytes(seed, key) }

// Index is the key store. The zero Index is not usable; call New.
type Index struct {
	stride int      // bytes per key; -1 until the first Add fixes it
	limit  int      // the most entries the key slab grows to hold
	keys   []byte   // entry i's key at [i*stride, (i+1)*stride)
	hashes []uint64 // entry i's hash
	slots  []uint32 // entry + 1, 0 = empty; len is a power of two
}

// New returns an empty index whose slabs grow, doubling, to hold at
// most limit entries. Memory follows the entries added, not the limit.
func New(limit int) Index {
	return Index{stride: -1, limit: limit, slots: make([]uint32, 8)}
}

// Len returns the number of entries.
func (x *Index) Len() int { return len(x.hashes) }

// Cap returns the number of entries the key slab holds before it next
// grows: a caller grows its own per-entry slices to match.
func (x *Index) Cap() int { return cap(x.hashes) }

// Stride returns the key length, or -1 before the first Add fixes it.
// Clear keeps it.
func (x *Index) Stride() int { return x.stride }

// Key returns entry i's key, a view into the slab valid until the next
// Add, Rekey, Delete or Clear.
func (x *Index) Key(i int) []byte { return x.keys[i*x.stride : (i+1)*x.stride] }

// Find returns the entry holding key, whose hash is h, and true; on a
// miss it returns the empty slot that ends key's probe, and false.
//
//zipline:noalloc
func (x *Index) Find(h uint64, key []byte) (int, bool) {
	mask := uint32(len(x.slots) - 1)
	for s := uint32(h) & mask; ; s = (s + 1) & mask {
		n := x.slots[s]
		if n == 0 {
			return int(s), false
		}
		if x.hashes[n-1] == h && bytes.Equal(x.Key(int(n-1)), key) {
			return int(n - 1), true
		}
	}
}

// Add appends key, whose hash is h, as entry Len() and returns it. slot
// is the miss slot Find returned for key, with no write to the index
// since: Add files the entry there, unless the index has to grow. The
// caller keeps Len below the limit and every key as long as the first.
//
//zipline:noalloc
func (x *Index) Add(h uint64, key []byte, slot int) int {
	i := len(x.hashes)
	if i == cap(x.hashes) {
		// Double the slabs together, up to the limit: append alone
		// grows large slices by a quarter, copying them many times over.
		x.stride = len(key) // fixed by the first key: the rest are as long
		n := min(max(2*i, 8), x.limit) - i
		//ziplint:allow noalloc slab growth, geometric; a cleared index refills its old storage
		x.keys, x.hashes = slices.Grow(x.keys, n*x.stride), slices.Grow(x.hashes, n)
	}
	x.keys = append(x.keys, key...)
	x.hashes = append(x.hashes, h)
	if 2*len(x.hashes) <= len(x.slots) {
		x.slots[slot] = uint32(i + 1)
		return i
	}
	// Double the index and re-file every entry by its stored hash.
	//ziplint:allow noalloc index growth, geometric
	x.slots = make([]uint32, 2*len(x.slots))
	for j := range x.hashes {
		x.place(j)
	}
	return i
}

// Rekey gives entry i the new key, whose hash is h, in place: the
// entry keeps its number and moves to the new key's probe. It probes
// afresh, since taking entry i out of its run can shift the slot a
// Find of the new key ended in.
//
//zipline:noalloc
func (x *Index) Rekey(i int, h uint64, key []byte) {
	x.unplace(x.slotOf(i))
	copy(x.Key(i), key)
	x.hashes[i] = h
	x.place(i)
}

// Delete removes entry i. The last entry moves into its number, so the
// entries stay dense; the caller mirrors that move in its own slices.
//
//zipline:noalloc
func (x *Index) Delete(i int) {
	x.unplace(x.slotOf(i))
	last := len(x.hashes) - 1
	if i != last {
		x.slots[x.slotOf(last)] = uint32(i + 1)
		copy(x.Key(i), x.Key(last))
		x.hashes[i] = x.hashes[last]
	}
	x.keys, x.hashes = x.keys[:last*x.stride], x.hashes[:last]
}

// Clear removes every entry, keeping the stride and all storage. It
// costs O(entries): a sparse index is emptied entry by entry, not
// cleared whole.
//
//zipline:noalloc
func (x *Index) Clear() {
	if 16*len(x.hashes) >= len(x.slots) {
		clear(x.slots)
	} else {
		for i := range x.hashes {
			x.slots[x.slotOf(i)] = 0
		}
	}
	x.keys, x.hashes = x.keys[:0], x.hashes[:0]
}

// slotOf returns the slot indexing entry i.
func (x *Index) slotOf(i int) uint32 {
	mask := uint32(len(x.slots) - 1)
	s := uint32(x.hashes[i]) & mask
	for x.slots[s] != uint32(i+1) {
		s = (s + 1) & mask
	}
	return s
}

// place files entry i, which must not be indexed already.
func (x *Index) place(i int) {
	mask := uint32(len(x.slots) - 1)
	s := uint32(x.hashes[i]) & mask
	for x.slots[s] != 0 {
		s = (s + 1) & mask
	}
	x.slots[s] = uint32(i + 1)
}

// unplace empties slot s and closes the gap: a later entry of the run
// moves back unless its home slot lies past the hole.
func (x *Index) unplace(s uint32) {
	mask := uint32(len(x.slots) - 1)
	for j := (s + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		n := x.slots[j]
		if home := uint32(x.hashes[n-1]) & mask; (j-home)&mask >= (j-s)&mask {
			x.slots[s] = n
			s = j
		}
	}
	x.slots[s] = 0
}
