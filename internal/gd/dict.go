package gd

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/bits"

	"zipline/internal/bitvec"
)

// hashSeed keys every basis hash in the process: a Frozen and the
// dictionaries over it agree, so a Lookup hashes once for both.
var hashSeed = maphash.MakeSeed()

// entry is the per-basis record of a slab. Entries are numbered from 1;
// 0 is "none" in the index and the sentinel of the LRU ring, whose next
// is the most and prev the least recently used entry.
type entry struct {
	hash       uint64 // of the basis bytes: deletion and growth never re-hash
	prev, next uint32 // LRU ring (unused by Frozen); next == dead once Removed
}

const dead = ^uint32(0)

// slab is the storage Dictionary and Frozen share: basis bytes packed
// at a fixed stride, one entry record each, and an open-addressed
// index over them (linear probing, at most half full, backward-shift
// deletion — no tombstones, so a probe ends at the first empty slot).
type slab struct {
	bits   int      // basis length in bits; -1 until the first basis fixes it
	stride int      // bytes per basis
	keys   []byte   // entry n's basis at [(n-1)*stride, n*stride)
	ents   []entry  // ents[0] is the sentinel
	slots  []uint32 // entry number, 0 = empty; len is a power of two
}

func newSlab(slots int) slab {
	return slab{bits: -1, ents: make([]entry, 1, 2), slots: make([]uint32, slots)}
}

// check panics on a basis of another length than the slab's first,
// given as its bit length and its packed bytes: a dictionary serves one
// codec, and the fixed stride depends on it.
func (s *slab) check(bits int, key []byte) {
	if bits != s.bits || len(key) != s.stride {
		if s.bits >= 0 || len(key) != (bits+7)/8 {
			panic(fmt.Sprintf("gd: basis of %d bits in %d bytes in a dictionary of %d-bit bases", bits, len(key), s.bits))
		}
		s.bits, s.stride = bits, len(key)
	}
}

func (s *slab) key(n uint32) []byte { return s.keys[int(n-1)*s.stride : int(n)*s.stride] }

// find returns the entry holding key, whose hash is h, or 0.
func (s *slab) find(h uint64, key []byte) uint32 {
	mask := uint32(len(s.slots) - 1)
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		n := s.slots[i]
		if n == 0 || s.ents[n].hash == h && bytes.Equal(s.key(n), key) {
			return n
		}
	}
}

// place indexes entry n, which must not be indexed already.
func (s *slab) place(n uint32) {
	mask := uint32(len(s.slots) - 1)
	i := uint32(s.ents[n].hash) & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = n
}

// unplace removes entry n from the index and closes the gap: a later
// entry of the run moves back unless its home slot lies past the hole.
func (s *slab) unplace(n uint32) {
	mask := uint32(len(s.slots) - 1)
	i := uint32(s.ents[n].hash) & mask
	for s.slots[i] != n {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		m := s.slots[j]
		if home := uint32(s.ents[m].hash) & mask; (j-home)&mask >= (j-i)&mask {
			s.slots[i] = m
			i = j
		}
	}
	s.slots[i] = 0
}

// Dictionary maps bases to short identifiers with LRU replacement,
// mirroring the basis↔ID tables that ZipLine's control plane manages
// in the switches (paper §5): a fixed pool of 2^t identifiers, the
// least recently used one recycled when a new basis arrives and the
// pool is exhausted.
//
// Dictionary is the in-process (single-node) variant used by the
// stream compressor and by workload analysis; the switch tables in
// zipline/internal/zswitch enforce the same policy through the
// simulated control plane. Not safe for concurrent use.
//
// Dynamic identifier id is entry id−base+1 of one slab (see the
// package comment). A dictionary serves one codec, so every basis has
// the same bit length (checked) and the basis bytes alone are the key —
// the key zswitch.BasisKey and the root package's Dict use too.
//
// The vectors LookupIDTouch and Insert return are the dictionary's own
// scratch, and TouchID's bytes a read-only view of its slab: both stay
// valid until LookupIDTouch, Insert, LookupInsert, Remove or Reset.
type Dictionary struct {
	idBits int
	slab                  // the dynamic entries
	freed  []uint32       // entries returned by Remove, LIFO
	out    *bitvec.Vector // the scratch behind returned vectors

	// frozen is an optional immutable prefix shared read-only with any
	// number of dictionaries (a compressor fleet's pre-trained bases):
	// identifiers [0, base), never evicted, refreshed or removed.
	frozen *Frozen
	base   uint32 // first dynamic id == frozen.Len()
}

// Frozen is an immutable basis→identifier mapping: identifiers are
// assigned densely in insertion order at construction and never change.
// A Frozen is safe for concurrent use by any number of Dictionaries —
// all its state is written once in NewFrozen and only read afterwards.
type Frozen struct {
	slab
	bases []bitvec.Vector // views of keys
}

// NewFrozen builds a frozen dictionary from bases, assigning ids
// 0..n-1 in order. Duplicate bases keep their first id; the bytes are
// copied, so the caller's vectors stay free to mutate.
func NewFrozen(bases []*bitvec.Vector) *Frozen {
	f := &Frozen{slab: newSlab(2 << bits.Len(uint(len(bases))))} // at most half full
	for _, b := range bases {
		f.check(b.Len(), b.Bytes())
		if h := maphash.Bytes(hashSeed, b.Bytes()); f.find(h, b.Bytes()) == 0 {
			f.keys = append(f.keys, b.Bytes()...)
			f.ents = append(f.ents, entry{hash: h})
			f.place(uint32(len(f.ents) - 1))
		}
	}
	f.bases = make([]bitvec.Vector, len(f.ents)-1)
	for i := range f.bases {
		f.bases[i] = *bitvec.Wrap(f.key(uint32(i+1)), f.bits)
	}
	return f
}

// Len returns the number of frozen entries.
func (f *Frozen) Len() int { return len(f.bases) }

// Basis returns the basis for a frozen identifier.
func (f *Frozen) Basis(id uint32) *bitvec.Vector { return &f.bases[id] }

// NewDictionary creates a dictionary with 2^idBits identifier slots.
// Memory is proportional to the entries actually inserted, not to the
// slot count: a decoder can be handed an attacker-chosen idBits (and,
// in the sharded container, hundreds of dictionaries), so the 2^24
// worst case must not be preallocated — an empty dictionary holds an
// 8-slot index and the slab grows geometrically from there. Identifiers
// are handed out in increasing order, reusing Removed ids first (LIFO).
func NewDictionary(idBits int) *Dictionary {
	if idBits < 1 || idBits > 24 {
		panic(fmt.Sprintf("gd: idBits %d out of range [1,24]", idBits))
	}
	return &Dictionary{idBits: idBits, slab: newSlab(8)}
}

// NewDictionaryFrozen creates a dictionary whose identifier space
// starts with the shared frozen prefix: ids [0, frozen.Len()) resolve
// through frozen (read-only, never evicted), and the remaining capacity
// behaves as a normal LRU dictionary. frozen may be nil. Because the
// prefix is only read, one Frozen can back any number of dictionaries.
func NewDictionaryFrozen(idBits int, frozen *Frozen) *Dictionary {
	d := NewDictionary(idBits)
	if frozen != nil && frozen.Len() > 0 {
		if frozen.Len() >= d.Capacity() {
			panic(fmt.Sprintf("gd: frozen dictionary of %d entries leaves no dynamic room in 2^%d ids", frozen.Len(), idBits))
		}
		d.frozen = frozen
		d.base = uint32(frozen.Len())
		d.bits, d.stride = frozen.bits, frozen.stride
	}
	return d
}

// Reset drops every dynamic mapping while keeping the frozen prefix
// and all allocated storage, so a pooled encoder can re-serve a new
// stream without allocating. It costs O(live entries): a nearly empty
// index is emptied entry by entry, not cleared whole.
//
//zipline:noalloc
func (d *Dictionary) Reset() {
	if 16*d.Len() >= len(d.slots) {
		clear(d.slots)
	} else {
		for n := d.ents[0].next; n != 0; n = d.ents[n].next {
			d.unplace(n)
		}
	}
	d.ents, d.keys, d.freed = d.ents[:1], d.keys[:0], d.freed[:0]
	d.ents[0] = entry{}
}

// IDBits returns the identifier width in bits.
func (d *Dictionary) IDBits() int { return d.idBits }

// Capacity returns the number of identifier slots, 2^IDBits.
func (d *Dictionary) Capacity() int { return 1 << uint(d.idBits) }

// Len returns the number of bases currently mapped.
func (d *Dictionary) Len() int { return len(d.ents) - 1 - len(d.freed) }

// Lookup returns the identifier for a basis if present, refreshing
// its recency (a data-plane hit resets the TNA idle timer). Frozen
// entries hit without a recency update — they are never evicted, so
// they carry no position in the LRU order.
//
//zipline:noalloc
func (d *Dictionary) Lookup(basis *bitvec.Vector) (uint32, bool) {
	d.check(basis.Len(), basis.Bytes())
	return d.lookup(maphash.Bytes(hashSeed, basis.Bytes()), basis.Bytes())
}

// lookup is Lookup of the basis bytes key, whose hash is h.
func (d *Dictionary) lookup(h uint64, key []byte) (uint32, bool) {
	if d.frozen != nil {
		if n := d.frozen.find(h, key); n != 0 {
			return n - 1, true
		}
	}
	n := d.find(h, key)
	if n == 0 {
		return 0, false
	}
	d.touch(n)
	return d.base + n - 1, true
}

// unlink takes live entry n out of the LRU ring.
func (d *Dictionary) unlink(n uint32) {
	e := d.ents
	e[e[n].prev].next, e[e[n].next].prev = e[n].next, e[n].prev
}

// pushFront makes unlinked entry n the most recently used.
func (d *Dictionary) pushFront(n uint32) {
	e := d.ents
	e[n].prev, e[n].next = 0, e[0].next
	e[e[0].next].prev, e[0].next = n, n
}

// touch is the recency refresh of a hit.
func (d *Dictionary) touch(n uint32) {
	if d.ents[0].next != n {
		d.unlink(n)
		d.pushFront(n)
	}
}

// entryOf returns the live entry behind dynamic identifier id, or 0.
func (d *Dictionary) entryOf(id uint32) uint32 {
	if n := id - d.base; n < uint32(len(d.ents)-1) && d.ents[n+1].next != dead {
		return n + 1
	}
	return 0
}

// LookupID returns the basis for an identifier if one is mapped (a
// copy, for a dynamic one). It does not refresh recency: decoders
// follow the encoder's mapping rather than maintaining their own.
func (d *Dictionary) LookupID(id uint32) (*bitvec.Vector, bool) {
	if id < d.base {
		return d.frozen.Basis(id), true
	}
	if n := d.entryOf(id); n != 0 {
		return bitvec.FromBytes(d.key(n), d.bits), true
	}
	return nil, false
}

// LookupIDTouch is LookupID plus the recency refresh of a Lookup hit,
// in one table access and without hashing the basis. The result is
// valid until the next mutating call.
//
//zipline:noalloc
func (d *Dictionary) LookupIDTouch(id uint32) (*bitvec.Vector, bool) {
	key, ok := d.TouchID(id)
	if !ok {
		return nil, false
	}
	copy(d.scratch().Bytes(), key)
	return d.out, true
}

// TouchID is LookupIDTouch returning a view of the basis bytes in the
// slab, valid until the next mutating call — the decoder's replay of
// an encoder hit, the dominant operation on the decode hot path.
//
//zipline:noalloc
func (d *Dictionary) TouchID(id uint32) ([]byte, bool) {
	if id < d.base {
		// Mirrors the encoder: frozen hits carry no recency.
		return d.frozen.key(id + 1), true
	}
	n := d.entryOf(id)
	if n == 0 {
		return nil, false
	}
	d.touch(n)
	return d.key(n), true
}

// scratch returns the vector behind LookupIDTouch's and Insert's results.
func (d *Dictionary) scratch() *bitvec.Vector {
	if d.out == nil {
		//ziplint:allow noalloc the result scratch, once per dictionary
		d.out = bitvec.New(d.bits)
	}
	return d.out
}

// Insert maps a new basis, allocating the least recently used
// identifier. It returns the assigned id and, when an existing mapping
// had to be recycled, the evicted basis (valid until the next mutating
// call). Inserting a basis that is already present just refreshes it.
//
//zipline:noalloc
func (d *Dictionary) Insert(basis *bitvec.Vector) (id uint32, evicted *bitvec.Vector) {
	d.check(basis.Len(), basis.Bytes())
	h := maphash.Bytes(hashSeed, basis.Bytes())
	if id, ok := d.lookup(h, basis.Bytes()); ok {
		return id, nil // present already: frozen (permanent) or dynamic (refreshed)
	}
	d.scratch() // the evicted basis's destination
	return d.insert(h, basis.Bytes())
}

// LookupInsert is Lookup and, on a miss, Insert of a bits-bit basis
// given as its packed bytes (padding bits zero): one hash serves both,
// and no evicted basis is copied out.
//
//zipline:noalloc
func (d *Dictionary) LookupInsert(key []byte, bits int) (id uint32, hit bool) {
	d.check(bits, key)
	h := maphash.Bytes(hashSeed, key)
	if id, hit = d.lookup(h, key); !hit {
		id, _ = d.insert(h, key)
	}
	return id, hit
}

// insert stores the absent basis bytes key, whose hash is h. A recycled
// entry's old basis is returned in the vector scratch, if there is one.
func (d *Dictionary) insert(h uint64, key []byte) (id uint32, evicted *bitvec.Vector) {
	var n uint32
	switch {
	case len(d.freed) > 0:
		n = d.freed[len(d.freed)-1]
		d.freed = d.freed[:len(d.freed)-1]
	case len(d.ents)-1 < d.Capacity()-int(d.base):
		n = uint32(len(d.ents))
		//ziplint:allow noalloc slab growth, geometric; a Reset dictionary refills its old storage
		d.ents, d.keys = append(d.ents, entry{}), append(d.keys, key...)
	default:
		// Recycle the least recently used mapping (paper §5: "an LRU
		// policy is applied to evict and recycle an identifier"); its
		// stored hash finds its index slot.
		n = d.ents[0].prev
		if d.out != nil {
			evicted = d.out
			copy(evicted.Bytes(), d.key(n))
		}
		d.unlink(n)
		d.unplace(n)
	}
	if 2*d.Len() > len(d.slots) {
		// Double the index; the ring holds every entry but n.
		//ziplint:allow noalloc index growth, geometric
		d.slots = make([]uint32, 2*len(d.slots))
		for m := d.ents[0].next; m != 0; m = d.ents[m].next {
			d.place(m)
		}
	}
	copy(d.key(n), key)
	d.ents[n].hash = h
	d.pushFront(n)
	d.place(n)
	return d.base + n - 1, evicted
}

// Remove drops the mapping for a basis, returning its id to the free
// pool. It reports whether the basis was present.
func (d *Dictionary) Remove(basis *bitvec.Vector) bool {
	d.check(basis.Len(), basis.Bytes())
	n := d.find(maphash.Bytes(hashSeed, basis.Bytes()), basis.Bytes())
	if n != 0 {
		d.unlink(n)
		d.unplace(n)
		d.ents[n].next = dead
		d.freed = append(d.freed, n)
	}
	return n != 0
}
