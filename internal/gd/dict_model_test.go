package gd

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"zipline/internal/bitvec"
)

// modelDictionary is the dictionary as it stood before the slab
// rewrite — map[string]*list.Element + container/list + a cloned
// Vector per entry — kept statement for statement as the oracle the
// slab is driven against (TestDictionaryModel, FuzzDictionaryModel).
type modelDictionary struct {
	idBits   int
	capacity int
	byKey    map[string]*list.Element // basis key -> entry
	byID     []*list.Element          // id -> entry (nil if free); grows on demand
	order    *list.List               // front = most recently used
	next     uint32                   // first never-allocated id

	// frozen is an optional immutable prefix shared read-only with any
	// number of other dictionaries (the pre-trained basis dictionary of
	// a compressor fleet). Frozen entries own identifiers [0, base) and
	// are never evicted or refreshed; dynamic entries start at
	// base and behave exactly as before.
	frozen *modelFrozen
	base   uint32 // first dynamic id == frozen.Len()
}

// modelFrozen is the matching two-map frozen prefix.
type modelFrozen struct {
	byKey map[string]uint32
	bases []*bitvec.Vector
}

func newModelFrozen(bases []*bitvec.Vector) *modelFrozen {
	f := &modelFrozen{byKey: make(map[string]uint32, len(bases))}
	for _, b := range bases {
		if _, dup := f.byKey[string(b.Bytes())]; dup {
			continue
		}
		f.byKey[string(b.Bytes())] = uint32(len(f.bases))
		f.bases = append(f.bases, b.Clone())
	}
	return f
}

func (f *modelFrozen) Len() int { return len(f.bases) }

type dictEntry struct {
	key   string
	basis *bitvec.Vector
	id    uint32
}

func newModelDictionary(idBits int) *modelDictionary {
	if idBits < 1 || idBits > 24 {
		panic(fmt.Sprintf("gd: idBits %d out of range [1,24]", idBits))
	}
	return &modelDictionary{
		idBits:   idBits,
		capacity: 1 << uint(idBits),
		byKey:    make(map[string]*list.Element),
		order:    list.New(),
	}
}

func newModelDictionaryFrozen(idBits int, frozen *modelFrozen) *modelDictionary {
	d := newModelDictionary(idBits)
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

func (d *modelDictionary) Reset() {
	clear(d.byKey)
	for i := range d.byID {
		d.byID[i] = nil
	}
	d.byID = d.byID[:0]
	d.order.Init()
	d.next = d.base
}

func (d *modelDictionary) Len() int { return d.order.Len() }

func (d *modelDictionary) Lookup(basis *bitvec.Vector) (uint32, bool) {
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

func (d *modelDictionary) LookupID(id uint32) (*bitvec.Vector, bool) {
	if id < d.base {
		return d.frozen.bases[id], true
	}
	if id >= uint32(len(d.byID)) || d.byID[id] == nil {
		return nil, false
	}
	return d.byID[id].Value.(*dictEntry).basis, true
}

func (d *modelDictionary) LookupIDTouch(id uint32) (*bitvec.Vector, bool) {
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

func (d *modelDictionary) Insert(basis *bitvec.Vector) (id uint32, evicted *bitvec.Vector) {
	// Present already, frozen (permanently mapped) or dynamic (refreshed).
	if id, ok := d.Lookup(basis); ok {
		return id, nil
	}
	key := string(basis.Bytes())
	switch {
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

// modelBits is the basis length of the model runs: not a whole number
// of bytes, so the stride carries pad bits.
const modelBits = 13

// modelPair drives a Dictionary and its oracle with the same
// operations and compares everything observable after each one.
type modelPair struct {
	t     *testing.T
	d     *Dictionary
	m     *modelDictionary
	keys  []*bitvec.Vector // the universe, twice the identifier space
	steps int
	// bytes routes inserts through LookupInsert and touches through
	// TouchID, the byte entry points the stream codec uses.
	bytes bool
}

// newModelPair builds both dictionaries at idBits; with frozen, the
// first half of the identifier space is a frozen prefix over the first
// keys of the universe.
func newModelPair(t *testing.T, idBits int, frozen bool) *modelPair {
	p := &modelPair{t: t}
	capacity := 1 << idBits
	for k := 0; k < 2*capacity; k++ {
		// Spread the keys over both bytes of the stride.
		p.keys = append(p.keys, bitvec.FromUint(uint64(k)*37%(1<<modelBits), modelBits))
	}
	if frozen {
		prefix := append(p.keys[:capacity/2:capacity/2], p.keys[0]) // one duplicate
		p.d = NewDictionaryFrozen(idBits, NewFrozen(prefix))
		p.m = newModelDictionaryFrozen(idBits, newModelFrozen(prefix))
	} else {
		p.d, p.m = NewDictionary(idBits), newModelDictionary(idBits)
	}
	p.compare("new")
	return p
}

func sameBasis(a, b *bitvec.Vector) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Equal(b))
}

// step applies the operation the two bytes select: op picks the kind,
// arg the key or identifier.
func (p *modelPair) step(op, arg byte) {
	t, d, m := p.t, p.d, p.m
	p.steps++
	key := p.keys[int(arg)%len(p.keys)]
	id := uint32(int(arg) % (d.Capacity() + 2)) // two past the end
	var what string
	switch {
	case op < 60:
		what = fmt.Sprintf("Lookup(%s)", key)
		gi, gok := d.Lookup(key)
		wi, wok := m.Lookup(key)
		if gi != wi || gok != wok {
			t.Fatalf("step %d: %s = %d,%v, model %d,%v", p.steps, what, gi, gok, wi, wok)
		}
	case op < 150 && p.bytes:
		what = fmt.Sprintf("LookupInsert(%s)", key)
		gi, ghit := d.LookupInsert(key.Bytes(), key.Len())
		wi, whit := m.Lookup(key)
		if !whit {
			wi, _ = m.Insert(key)
		}
		if gi != wi || ghit != whit {
			t.Fatalf("step %d: %s = %d,%v, model %d,%v", p.steps, what, gi, ghit, wi, whit)
		}
	case op < 150:
		what = fmt.Sprintf("Insert(%s)", key)
		gi, gev := d.Insert(key)
		wi, wev := m.Insert(key)
		if gi != wi || !sameBasis(gev, wev) {
			t.Fatalf("step %d: %s = %d,%v, model %d,%v", p.steps, what, gi, gev, wi, wev)
		}
	case op < 180:
		what = fmt.Sprintf("LookupID(%d)", id)
		gb, gok := d.LookupID(id)
		wb, wok := m.LookupID(id)
		if gok != wok || !sameBasis(gb, wb) {
			t.Fatalf("step %d: %s = %v,%v, model %v,%v", p.steps, what, gb, gok, wb, wok)
		}
	case op < 250 && p.bytes:
		what = fmt.Sprintf("TouchID(%d)", id)
		gb, gok := d.TouchID(id)
		wb, wok := m.LookupIDTouch(id)
		if gok != wok || gok && !slices.Equal(gb, wb.Bytes()) {
			t.Fatalf("step %d: %s = %x,%v, model %v,%v", p.steps, what, gb, gok, wb, wok)
		}
	case op < 250:
		what = fmt.Sprintf("LookupIDTouch(%d)", id)
		gb, gok := d.LookupIDTouch(id)
		wb, wok := m.LookupIDTouch(id)
		if gok != wok || !sameBasis(gb, wb) {
			t.Fatalf("step %d: %s = %v,%v, model %v,%v", p.steps, what, gb, gok, wb, wok)
		}
	default:
		what = "Reset"
		d.Reset()
		m.Reset()
	}
	p.compare(what)
}

// compare dumps both dictionaries — every identifier's basis, the LRU
// order. The index's own invariants are internal/slab's to check.
func (p *modelPair) compare(after string) {
	t, d, m := p.t, p.d, p.m
	if d.Len() != m.Len() {
		t.Fatalf("step %d, after %s: Len = %d, model %d", p.steps, after, d.Len(), m.Len())
	}
	for id := uint32(0); id < uint32(d.Capacity()+2); id++ {
		gb, gok := d.LookupID(id)
		wb, wok := m.LookupID(id)
		if gok != wok || !sameBasis(gb, wb) {
			t.Fatalf("step %d, after %s: id %d = %v,%v, model %v,%v", p.steps, after, id, gb, gok, wb, wok)
		}
	}
	var got, want []uint32
	for n := d.links[0].next; n != 0; n = d.links[n].next {
		got = append(got, d.base+n-1)
	}
	for el := m.order.Front(); el != nil; el = el.Next() {
		want = append(want, el.Value.(*dictEntry).id)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("step %d, after %s: LRU order %v, model %v", p.steps, after, got, want)
	}
}

// TestDictionaryModel replays seeded random operation sequences on the
// slab dictionary and the list-based oracle, through the vector entry
// points and through the byte ones. The universe is twice the
// identifier space, so hits, evictions and re-inserts all occur at
// every width.
func TestDictionaryModel(t *testing.T) {
	for idBits := 1; idBits <= 6; idBits++ {
		for _, frozen := range []bool{false, true} {
			for seed := int64(0); seed < 4; seed++ {
				for _, viaBytes := range []bool{false, true} {
					rng := rand.New(rand.NewSource(seed*100 + int64(idBits)))
					p := newModelPair(t, idBits, frozen)
					p.bytes = viaBytes
					for i := 0; i < 3000; i++ {
						p.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
					}
				}
			}
		}
	}
}

// FuzzDictionaryModel is the same harness over fuzzer-chosen
// operations: two bytes a step.
func FuzzDictionaryModel(f *testing.F) {
	f.Add(uint8(1), false, []byte{100, 0, 100, 1, 100, 2, 0, 0, 220, 1, 100, 3, 255, 0})
	f.Add(uint8(3), true, []byte{100, 9, 100, 10, 190, 4, 100, 11, 100, 12, 100, 13, 230, 10, 100, 14})
	f.Add(uint8(129), true, []byte{100, 9, 100, 10, 200, 4, 100, 11, 100, 12, 100, 13, 200, 10, 100, 14})
	f.Fuzz(func(t *testing.T, idBits uint8, frozen bool, ops []byte) {
		p := newModelPair(t, 1+int(idBits)%6, frozen)
		p.bytes = idBits >= 128 // the byte entry points
		for i := 0; i+1 < len(ops); i += 2 {
			p.step(ops[i], ops[i+1])
		}
	})
}

// TestDictionaryProbeRunDeletion forces every basis of a full
// dictionary into one probe run that wraps around the end of the index
// (the hash is a parameter of lookupInsert), evicts each position of
// the run in turn, and checks that every survivor and the newcomer stay
// reachable. The newcomer's home is outside the run (8), so the hole is
// not simply refilled, or inside it (14): its miss slot, past the run's
// end, goes stale when the victim's removal shifts the run back, so the
// recycled entry must be probed for afresh. Both go through Insert's
// path (the evicted basis copied out) and LookupInsert's (none).
func TestDictionaryProbeRunDeletion(t *testing.T) {
	const idBits = 3 // 8 entries in a 16-slot index
	// Home slots: a run starting two slots before the end, with later
	// arrivals whose homes lie inside it and past the wrap.
	homes := []uint64{14, 14, 15, 14, 0, 14, 1, 15}
	keys := make([]*bitvec.Vector, len(homes)+1)
	for i := range keys {
		keys[i] = bitvec.FromUint(uint64(i+1), modelBits)
	}
	hash := func(home uint64) uint64 { return home<<32 | home } // equal low bits at every index size
	for _, newHome := range []uint64{8, 14} {
		for _, copyOut := range []bool{true, false} {
			for victim := range homes {
				d := NewDictionary(idBits)
				checkBasis(&d.bits, keys[0].Len(), keys[0].Bytes())
				if copyOut {
					d.scratch() // where Insert returns the evicted basis
				}
				for i, h := range homes {
					d.lookupInsert(hash(h), keys[i].Bytes())
				}
				// A 16-slot index whose run fills slots 14, 15 and 0–5.
				if slot, ok := d.ix.Find(hash(14), keys[len(homes)].Bytes()); ok || slot != 6 {
					t.Fatalf("run does not wrap: a miss from home 14 ends at slot %d", slot)
				}
				// Make the victim the least recently used entry, then
				// evict it.
				for i, h := range homes {
					if i != victim {
						d.lookup(hash(h), keys[i].Bytes())
					}
				}
				id, hit, evicted := d.lookupInsert(hash(newHome), keys[len(homes)].Bytes())
				if hit || id != uint32(victim) || copyOut != (evicted != nil) || copyOut && !evicted.Equal(keys[victim]) {
					t.Fatalf("home %d, victim %d: id %d, hit %v, evicted %v", newHome, victim, id, hit, evicted)
				}
				for i, h := range append(homes, newHome) {
					_, _, ok := d.lookup(hash(h), keys[i].Bytes())
					if ok == (i == victim) {
						t.Fatalf("home %d, victim %d: key %d found = %v", newHome, victim, i, ok)
					}
				}
			}
		}
	}
}
