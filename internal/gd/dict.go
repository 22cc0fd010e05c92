package gd

import (
	"container/list"
	"fmt"

	"zipline/internal/bitvec"
)

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
// A dictionary serves one codec, so every basis it sees has the same
// bit length and the basis bytes alone are the map key — the key
// zswitch.BasisKey and the root package's Dict use too.
type Dictionary struct {
	idBits   int
	capacity int
	byKey    map[string]*list.Element // basis key -> entry
	byID     []*list.Element          // id -> entry (nil if free); grows on demand
	order    *list.List               // front = most recently used
	freed    []uint32                 // ids returned by Remove, LIFO
	next     uint32                   // first never-allocated id

	// frozen is an optional immutable prefix shared read-only with any
	// number of other dictionaries (the pre-trained basis dictionary of
	// a compressor fleet). Frozen entries own identifiers [0, base) and
	// are never evicted, refreshed or removed; dynamic entries start at
	// base and behave exactly as before.
	frozen *Frozen
	base   uint32 // first dynamic id == frozen.Len()
}

// Frozen is an immutable basis→identifier mapping: identifiers are
// assigned densely in insertion order at construction and never change.
// A Frozen is safe for concurrent use by any number of Dictionaries —
// all its state is written once in NewFrozen and only read afterwards.
type Frozen struct {
	byKey map[string]uint32
	bases []*bitvec.Vector
}

// NewFrozen builds a frozen dictionary from bases, assigning ids
// 0..n-1 in order. Duplicate bases keep their first id; the vectors
// are cloned, so the caller's slices stay free to mutate.
func NewFrozen(bases []*bitvec.Vector) *Frozen {
	f := &Frozen{byKey: make(map[string]uint32, len(bases))}
	for _, b := range bases {
		if _, dup := f.byKey[string(b.Bytes())]; dup {
			continue
		}
		f.byKey[string(b.Bytes())] = uint32(len(f.bases))
		f.bases = append(f.bases, b.Clone())
	}
	return f
}

// Len returns the number of frozen entries.
func (f *Frozen) Len() int { return len(f.bases) }

// Basis returns the basis for a frozen identifier.
func (f *Frozen) Basis(id uint32) *bitvec.Vector { return f.bases[id] }

type dictEntry struct {
	key   string
	basis *bitvec.Vector
	id    uint32
}

// NewDictionary creates a dictionary with 2^idBits identifier slots.
// Memory is proportional to the entries actually inserted, not to the
// slot count: a decoder can be handed an attacker-chosen idBits (and,
// in the sharded container, hundreds of dictionaries), so the 2^24
// worst case must not be preallocated. Identifiers are still handed
// out in increasing order (reusing Removed ids first, LIFO), exactly
// as the previous eager free-list did.
func NewDictionary(idBits int) *Dictionary {
	if idBits < 1 || idBits > 24 {
		panic(fmt.Sprintf("gd: idBits %d out of range [1,24]", idBits))
	}
	return &Dictionary{
		idBits:   idBits,
		capacity: 1 << uint(idBits),
		byKey:    make(map[string]*list.Element),
		order:    list.New(),
	}
}

// NewDictionaryFrozen creates a dictionary whose identifier space
// starts with the shared frozen prefix: ids [0, frozen.Len()) resolve
// through frozen (read-only, never evicted), and the remaining
// capacity behaves as a normal LRU dictionary. frozen may be nil.
// Because the prefix is only ever read, one Frozen can back any
// number of concurrent dictionaries.
func NewDictionaryFrozen(idBits int, frozen *Frozen) *Dictionary {
	d := NewDictionary(idBits)
	if frozen != nil && frozen.Len() > 0 {
		if frozen.Len() >= d.capacity {
			panic(fmt.Sprintf("gd: frozen dictionary of %d entries leaves no dynamic room in 2^%d ids", frozen.Len(), idBits))
		}
		d.frozen = frozen
		d.base = uint32(frozen.Len())
		d.next = d.base
	}
	return d
}

// Reset drops every dynamic mapping while keeping the frozen prefix
// and all allocated storage (map buckets, id table), so a
// pooled encoder can re-serve a new stream without allocating.
//
//zipline:noalloc
func (d *Dictionary) Reset() {
	clear(d.byKey)
	for i := range d.byID {
		d.byID[i] = nil
	}
	d.byID = d.byID[:0]
	d.order.Init()
	d.freed = d.freed[:0]
	d.next = d.base
}

// IDBits returns the identifier width in bits.
func (d *Dictionary) IDBits() int { return d.idBits }

// FrozenLen returns the size of the shared frozen prefix (0 without one).
func (d *Dictionary) FrozenLen() int { return int(d.base) }

// Capacity returns the number of identifier slots, 2^IDBits.
func (d *Dictionary) Capacity() int { return d.capacity }

// Len returns the number of bases currently mapped.
func (d *Dictionary) Len() int { return d.order.Len() }

// Lookup returns the identifier for a basis if present, refreshing
// its recency (a data-plane hit resets the TNA idle timer). Frozen
// entries hit without a recency update — they are never evicted, so
// they carry no position in the LRU order.
//
//zipline:noalloc
func (d *Dictionary) Lookup(basis *bitvec.Vector) (uint32, bool) {
	if d.frozen != nil {
		if id, ok := d.frozen.byKey[string(basis.Bytes())]; ok {
			return id, true
		}
	}
	el, ok := d.byKey[string(basis.Bytes())]
	if !ok {
		return 0, false
	}
	d.order.MoveToFront(el)
	return el.Value.(*dictEntry).id, true
}

// LookupID returns the basis for an identifier if one is mapped. It
// does not refresh recency: decoders follow the encoder's mapping
// rather than maintaining their own.
func (d *Dictionary) LookupID(id uint32) (*bitvec.Vector, bool) {
	if id < d.base {
		return d.frozen.bases[id], true
	}
	if id >= uint32(len(d.byID)) || d.byID[id] == nil {
		return nil, false
	}
	return d.byID[id].Value.(*dictEntry).basis, true
}

// LookupIDTouch is LookupID plus the recency refresh of a Lookup hit,
// in one table access and without rebuilding the basis key — the
// decoder's replay of an encoder hit, the dominant operation on the
// decode hot path.
//
//zipline:noalloc
func (d *Dictionary) LookupIDTouch(id uint32) (*bitvec.Vector, bool) {
	if id < d.base {
		// Mirrors the encoder: frozen hits carry no recency.
		return d.frozen.bases[id], true
	}
	if id >= uint32(len(d.byID)) || d.byID[id] == nil {
		return nil, false
	}
	el := d.byID[id]
	d.order.MoveToFront(el)
	return el.Value.(*dictEntry).basis, true
}

// Insert maps a new basis, allocating the least recently used
// identifier. It returns the assigned id and, when an existing
// mapping had to be recycled, the evicted basis. Inserting a basis
// that is already present just refreshes it.
func (d *Dictionary) Insert(basis *bitvec.Vector) (id uint32, evicted *bitvec.Vector) {
	// Present already, frozen (permanently mapped) or dynamic (refreshed).
	if id, ok := d.Lookup(basis); ok {
		return id, nil
	}
	key := string(basis.Bytes())
	switch {
	case len(d.freed) > 0:
		id = d.freed[len(d.freed)-1]
		d.freed = d.freed[:len(d.freed)-1]
	case d.next < uint32(d.capacity):
		id = d.next
		d.next++
	default:
		// Recycle the least recently used mapping (paper §5: "an LRU
		// policy is applied to evict and recycle an identifier").
		back := d.order.Back()
		ent := back.Value.(*dictEntry)
		id = ent.id
		evicted = ent.basis
		delete(d.byKey, ent.key)
		d.byID[id] = nil
		d.order.Remove(back)
	}
	el := d.order.PushFront(&dictEntry{key: key, basis: basis.Clone(), id: id})
	d.byKey[key] = el
	for int(id) >= len(d.byID) {
		d.byID = append(d.byID, nil)
	}
	d.byID[id] = el
	return id, evicted
}

// Remove drops the mapping for a basis, returning its id to the free
// pool. It reports whether the basis was present.
func (d *Dictionary) Remove(basis *bitvec.Vector) bool {
	el, ok := d.byKey[string(basis.Bytes())]
	if !ok {
		return false
	}
	ent := el.Value.(*dictEntry)
	delete(d.byKey, ent.key)
	d.byID[ent.id] = nil
	d.order.Remove(el)
	d.freed = append(d.freed, ent.id)
	return true
}
