package gd

import (
	"fmt"

	"zipline/internal/bitvec"
	"zipline/internal/slab"
)

// checkBasis panics on a basis of another length than the first a
// dictionary saw, given as its bit length and its packed bytes, and
// records the length in *fixed (-1 until the first basis): a
// dictionary serves one codec, and its index's stride depends on it.
func checkBasis(fixed *int, bits int, key []byte) {
	if len(key) != (bits+7)/8 || *fixed >= 0 && bits != *fixed {
		panic(fmt.Sprintf("gd: basis of %d bits in %d bytes in a dictionary of %d-bit bases", bits, len(key), *fixed))
	}
	*fixed = bits
}

// link is an entry's place in a Dictionary's LRU ring. The ring numbers
// index entry i as i+1; 0 is the sentinel, whose next is the most and
// prev the least recently used entry.
type link struct{ prev, next uint32 }

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
// Dynamic identifier id is entry id−base of one slab.Index (see the
// package comment). A dictionary serves one codec, so every basis has
// the same bit length (checked) and the basis bytes alone are the key —
// the key of zswitch's basis_to_id table and of the root package's Dict.
//
// The vectors LookupIDTouch and Insert return are the dictionary's own
// scratch, and TouchID's bytes a read-only view of its slab: both stay
// valid until LookupIDTouch, Insert, LookupInsert or Reset.
type Dictionary struct {
	idBits int
	bits   int            // basis length in bits; -1 until the first basis fixes it
	ix     slab.Index     // the dynamic entries
	links  []link         // the LRU ring; links[0] is the sentinel
	out    *bitvec.Vector // the scratch behind returned vectors

	// frozen is an optional immutable prefix shared read-only with any
	// number of dictionaries (a compressor fleet's pre-trained bases):
	// identifiers [0, base), never evicted or refreshed.
	frozen *Frozen
	base   uint32 // first dynamic id == frozen.Len()
}

// Frozen is an immutable basis→identifier mapping: identifiers are
// assigned densely in insertion order at construction and never change.
// A Frozen is safe for concurrent use by any number of Dictionaries —
// all its state is written once in NewFrozen and only read afterwards.
type Frozen struct {
	bits  int
	ix    slab.Index
	bases []bitvec.Vector // views of the index's keys
}

// NewFrozen builds a frozen dictionary from bases, assigning ids
// 0..n-1 in order. Duplicate bases keep their first id; the bytes are
// copied, so the caller's vectors stay free to mutate.
func NewFrozen(bases []*bitvec.Vector) *Frozen {
	f := &Frozen{bits: -1, ix: slab.New(len(bases))}
	for _, b := range bases {
		checkBasis(&f.bits, b.Len(), b.Bytes())
		h := slab.Hash(b.Bytes())
		if slot, ok := f.ix.Find(h, b.Bytes()); !ok {
			f.ix.Add(h, b.Bytes(), slot)
		}
	}
	f.bases = make([]bitvec.Vector, f.ix.Len())
	for i := range f.bases {
		f.bases[i] = *bitvec.Wrap(f.ix.Key(i), f.bits)
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
// are handed out in increasing order, then recycled in LRU order.
func NewDictionary(idBits int) *Dictionary { return NewDictionaryFrozen(idBits, nil) }

// NewDictionaryFrozen creates a dictionary whose identifier space
// starts with the shared frozen prefix: ids [0, frozen.Len()) resolve
// through frozen (read-only, never evicted), and the remaining capacity
// behaves as a normal LRU dictionary. frozen may be nil. Because the
// prefix is only read, one Frozen can back any number of dictionaries.
func NewDictionaryFrozen(idBits int, frozen *Frozen) *Dictionary {
	if idBits < 1 || idBits > 24 {
		panic(fmt.Sprintf("gd: idBits %d out of range [1,24]", idBits))
	}
	d := &Dictionary{idBits: idBits, bits: -1, links: make([]link, 1, 2)}
	if frozen != nil && frozen.Len() > 0 {
		if frozen.Len() >= d.Capacity() {
			panic(fmt.Sprintf("gd: frozen dictionary of %d entries leaves no dynamic room in 2^%d ids", frozen.Len(), idBits))
		}
		d.frozen, d.base, d.bits = frozen, uint32(frozen.Len()), frozen.bits
	}
	d.ix = slab.New(d.Capacity() - int(d.base))
	return d
}

// Reset drops every dynamic mapping while keeping the frozen prefix
// and all allocated storage, so a pooled encoder can re-serve a new
// stream without allocating. It costs O(live entries): a nearly empty
// index is emptied entry by entry, not cleared whole.
//
//zipline:noalloc
func (d *Dictionary) Reset() {
	d.ix.Clear()
	d.links = d.links[:1]
	d.links[0] = link{}
}

// IDBits returns the identifier width in bits.
func (d *Dictionary) IDBits() int { return d.idBits }

// Capacity returns the number of identifier slots, 2^IDBits.
func (d *Dictionary) Capacity() int { return 1 << uint(d.idBits) }

// Len returns the number of bases currently mapped.
func (d *Dictionary) Len() int { return d.ix.Len() }

// Lookup returns the identifier for a basis if present, refreshing
// its recency (a data-plane hit resets the TNA idle timer). Frozen
// entries hit without a recency update — they are never evicted, so
// they carry no position in the LRU order.
//
//zipline:noalloc
func (d *Dictionary) Lookup(basis *bitvec.Vector) (uint32, bool) {
	checkBasis(&d.bits, basis.Len(), basis.Bytes())
	id, _, hit := d.lookup(slab.Hash(basis.Bytes()), basis.Bytes())
	return id, hit
}

// lookup is Lookup of the basis bytes key, whose hash is h. On a miss
// it returns id 0 and the empty dynamic index slot that ends key's probe.
func (d *Dictionary) lookup(h uint64, key []byte) (id uint32, slot int, hit bool) {
	if d.frozen != nil {
		if i, ok := d.frozen.ix.Find(h, key); ok {
			return uint32(i), 0, true
		}
	}
	i, ok := d.ix.Find(h, key)
	if !ok {
		return 0, i, false
	}
	d.touch(uint32(i) + 1)
	return d.base + uint32(i), 0, true
}

// unlink takes ring entry n out of the LRU ring.
func (d *Dictionary) unlink(n uint32) {
	l := d.links
	l[l[n].prev].next, l[l[n].next].prev = l[n].next, l[n].prev
}

// pushFront makes unlinked ring entry n the most recently used.
func (d *Dictionary) pushFront(n uint32) {
	l := d.links
	l[n].prev, l[n].next = 0, l[0].next
	l[l[0].next].prev, l[0].next = n, n
}

// touch is the recency refresh of a hit on ring entry n.
func (d *Dictionary) touch(n uint32) {
	if d.links[0].next != n {
		d.unlink(n)
		d.pushFront(n)
	}
}

// LookupID returns the basis for an identifier if one is mapped (a
// copy, for a dynamic one). It does not refresh recency: decoders
// follow the encoder's mapping rather than maintaining their own.
func (d *Dictionary) LookupID(id uint32) (*bitvec.Vector, bool) {
	if id < d.base {
		return d.frozen.Basis(id), true
	}
	if i := id - d.base; i < uint32(d.ix.Len()) {
		return bitvec.FromBytes(d.ix.Key(int(i)), d.bits), true
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
		return d.frozen.ix.Key(int(id)), true
	}
	i := id - d.base
	if i >= uint32(d.ix.Len()) {
		return nil, false
	}
	d.touch(i + 1)
	return d.ix.Key(int(i)), true
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
	checkBasis(&d.bits, basis.Len(), basis.Bytes())
	d.scratch() // the evicted basis's destination
	id, _, evicted = d.lookupInsert(slab.Hash(basis.Bytes()), basis.Bytes())
	return id, evicted
}

// LookupInsert is Lookup and, on a miss, Insert of a bits-bit basis
// given as its packed bytes (padding bits zero): one hash serves both,
// and no evicted basis is copied out.
//
//zipline:noalloc
func (d *Dictionary) LookupInsert(key []byte, bits int) (id uint32, hit bool) {
	checkBasis(&d.bits, bits, key)
	id, hit, _ = d.lookupInsert(slab.Hash(key), key)
	return id, hit
}

// lookupInsert looks up the basis bytes key, whose hash is h, and on a
// miss stores it. Until the identifiers run out, the new entry takes
// the slot the lookup's probe ended in: one probe per basis. A recycled
// entry's old basis is returned in the vector scratch, if there is one.
func (d *Dictionary) lookupInsert(h uint64, key []byte) (id uint32, hit bool, evicted *bitvec.Vector) {
	id, slot, hit := d.lookup(h, key)
	if hit {
		return id, true, nil
	}
	var i int
	if d.ix.Len() < d.Capacity()-int(d.base) {
		i = d.ix.Add(h, key, slot)
		//ziplint:allow noalloc ring growth, geometric; a Reset dictionary refills its old storage
		d.links = append(d.links, link{})
	} else {
		// Recycle the least recently used mapping (paper §5: "an LRU
		// policy is applied to evict and recycle an identifier").
		n := d.links[0].prev
		i = int(n - 1)
		if d.out != nil {
			evicted = d.out
			copy(evicted.Bytes(), d.ix.Key(i))
		}
		d.unlink(n)
		d.ix.Rekey(i, h, key)
	}
	d.pushFront(uint32(i) + 1)
	return d.base + uint32(i), false, evicted
}
