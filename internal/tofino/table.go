package tofino

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
)

// hashSeed keys every table's index in the process. Probe order may
// differ run to run; nothing observable depends on it.
var hashSeed = maphash.MakeSeed()

// Table is an exact-match match-action table. The data plane may only
// look entries up; installation, deletion and capacity are control
// plane business, exactly as on the hardware (paper §6: "we settled
// on storing basis-ID pairs in regular match-action tables and manage
// them with the control plane").
//
// Action data is fixed-width bytes, ceil(ActionBits/8) per entry, as
// P4 action data is. Every key has the length of the first installed
// one. Entries live in flat slabs (key bytes and action bytes at a
// fixed stride, one entry record each) under an open-addressed index:
// linear probing, at most half full, backward-shift deletion. The
// slabs grow with the entries, not with the declared capacity. An
// action returned by a data-plane match (Ctx.ApplyBytes) or by Get is
// a view into the slab, valid until the table's next control-plane
// write (Install, Delete or Clear).
type Table struct {
	name     string
	keyBits  int
	actBits  int
	capacity int
	// idleTimeoutNs > 0 enables TNA-style per-entry aging.
	idleTimeoutNs int64

	keyLen int      // bytes per key; -1 until the first Install fixes it
	actLen int      // bytes per action, ceil(actBits/8)
	keys   []byte   // entry i's key at [i*keyLen, (i+1)*keyLen)
	acts   []byte   // entry i's action at [i*actLen, (i+1)*actLen)
	ents   []entry  // live entries, dense: Delete moves the last into the hole
	slots  []uint32 // entry number + 1, 0 = empty; len is a power of two
}

// entry is the per-entry state beside the key and action bytes.
type entry struct {
	hash    uint64 // of the key: deletion and growth never re-hash
	lastHit int64
}

// TableSpec declares a table's geometry at program Declare time.
type TableSpec struct {
	Name string
	// KeyBits and ActionBits size the SRAM cost model. ActionBits
	// also fixes the action data width, ceil(ActionBits/8) bytes.
	KeyBits    int
	ActionBits int
	// Capacity is the maximum number of entries.
	Capacity int
	// IdleTimeoutNs enables per-entry aging: entries not hit for this
	// long show up in ExpiredKeys. Zero disables aging.
	IdleTimeoutNs int64
}

func newTable(s TableSpec) (*Table, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("tofino: table needs a name")
	}
	if s.KeyBits <= 0 || s.Capacity <= 0 {
		return nil, fmt.Errorf("tofino: table %s: key bits and capacity must be positive", s.Name)
	}
	if s.ActionBits < 0 || s.IdleTimeoutNs < 0 {
		return nil, fmt.Errorf("tofino: table %s: negative action bits or idle timeout", s.Name)
	}
	return &Table{
		name:          s.Name,
		keyBits:       s.KeyBits,
		actBits:       s.ActionBits,
		capacity:      s.Capacity,
		idleTimeoutNs: s.IdleTimeoutNs,
		keyLen:        -1,
		actLen:        (s.ActionBits + 7) / 8,
		slots:         make([]uint32, 8),
	}, nil
}

// Name returns the table's declared name.
func (t *Table) Name() string { return t.name }

// Len returns the number of installed entries.
func (t *Table) Len() int { return len(t.ents) }

// Capacity returns the declared maximum entry count.
func (t *Table) Capacity() int { return t.capacity }

func (t *Table) key(i int) []byte { return t.keys[i*t.keyLen : (i+1)*t.keyLen] }

// act returns entry i's action, capped so an append cannot reach the
// next entry's bytes.
func (t *Table) act(i int) []byte {
	return t.acts[i*t.actLen : (i+1)*t.actLen : (i+1)*t.actLen]
}

// find returns the slot holding key, whose hash is h, and whether the
// key is there; on a miss the slot is the empty one ending the probe.
func (t *Table) find(h uint64, key []byte) (int, bool) {
	mask := len(t.slots) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		n := t.slots[s]
		if n == 0 {
			return s, false
		}
		if t.ents[n-1].hash == h && bytes.Equal(t.key(int(n-1)), key) {
			return s, true
		}
	}
}

// lookup returns the entry holding key, or -1. A key of another
// length than the installed ones misses without probing.
func (t *Table) lookup(key []byte) int {
	if len(key) != t.keyLen {
		return -1
	}
	s, ok := t.find(maphash.Bytes(hashSeed, key), key)
	if !ok {
		return -1
	}
	return int(t.slots[s] - 1)
}

// slotOf returns the slot indexing entry i.
func (t *Table) slotOf(i int) int {
	mask := len(t.slots) - 1
	s := int(t.ents[i].hash) & mask
	for t.slots[s] != uint32(i+1) {
		s = (s + 1) & mask
	}
	return s
}

// place indexes entry i, which must not be indexed already.
func (t *Table) place(i int) {
	mask := len(t.slots) - 1
	s := int(t.ents[i].hash) & mask
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = uint32(i + 1)
}

// unplace empties slot s and closes the gap: a later entry of the run
// moves back unless its home slot lies past the hole.
func (t *Table) unplace(s int) {
	mask := len(t.slots) - 1
	for j := (s + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		n := t.slots[j]
		if home := int(t.ents[n-1].hash) & mask; (j-home)&mask >= (j-s)&mask {
			t.slots[s] = n
			s = j
		}
	}
	t.slots[s] = 0
}

// lookupBytes is the data-plane path: a hit refreshes the entry's
// idle timer (TNA resets the TTL on data-plane match) and returns the
// action bytes, a view valid until the next control-plane write.
//
//zipline:noalloc
func (t *Table) lookupBytes(key []byte, now int64) ([]byte, bool) {
	i := t.lookup(key)
	if i < 0 {
		return nil, false
	}
	t.ents[i].lastHit = now
	return t.act(i), true
}

// Install adds or replaces an entry, copying key and action into the
// table. The action must be ceil(ActionBits/8) bytes and the key as
// long as every installed key (the first Install fixes the length).
// Installing up to the table's high-water mark allocates nothing.
// Control-plane API.
func (t *Table) Install(key, action []byte, now int64) error {
	if len(action) != t.actLen {
		return fmt.Errorf("tofino: table %s: %d-byte action, want %d", t.name, len(action), t.actLen)
	}
	if t.keyLen < 0 {
		t.keyLen = len(key)
	}
	if len(key) != t.keyLen {
		return fmt.Errorf("tofino: table %s: %d-byte key, want %d", t.name, len(key), t.keyLen)
	}
	h := maphash.Bytes(hashSeed, key)
	if s, ok := t.find(h, key); ok {
		i := int(t.slots[s] - 1)
		copy(t.act(i), action)
		t.ents[i].lastHit = now
		return nil
	}
	if len(t.ents) >= t.capacity {
		return fmt.Errorf("tofino: table %s full (%d entries)", t.name, t.capacity)
	}
	if len(t.ents) == cap(t.ents) {
		// Double the slabs together, up to the capacity: append alone
		// grows large slices by a quarter, copying them many times over.
		n := min(max(2*len(t.ents), 8), t.capacity) - len(t.ents)
		t.keys = slices.Grow(t.keys, n*t.keyLen)
		t.acts = slices.Grow(t.acts, n*t.actLen)
		t.ents = slices.Grow(t.ents, n)
	}
	t.keys = append(t.keys, key...)
	t.acts = append(t.acts, action...)
	t.ents = append(t.ents, entry{hash: h, lastHit: now})
	if 2*len(t.ents) > len(t.slots) {
		// Double the index and re-place every entry by stored hash.
		t.slots = make([]uint32, 2*len(t.slots))
		for i := range t.ents {
			t.place(i)
		}
	} else {
		t.place(len(t.ents) - 1)
	}
	return nil
}

// Clear removes every entry, returning how many were dropped — the
// state a power cycle loses. The slabs keep their storage, so the
// table refills to its old size without allocating.
// Control-plane / fault-injection API.
func (t *Table) Clear() int {
	n := len(t.ents)
	clear(t.slots)
	t.keys, t.acts, t.ents = t.keys[:0], t.acts[:0], t.ents[:0]
	return n
}

// Delete removes an entry, reporting whether it existed. The last
// entry moves into the hole, so the slabs stay dense.
// Control-plane API.
func (t *Table) Delete(key []byte) bool {
	i := t.lookup(key)
	if i < 0 {
		return false
	}
	t.unplace(t.slotOf(i))
	if last := len(t.ents) - 1; i != last {
		t.slots[t.slotOf(last)] = uint32(i + 1)
		copy(t.key(i), t.key(last))
		copy(t.act(i), t.act(last))
		t.ents[i] = t.ents[last]
	}
	t.keys = t.keys[:len(t.keys)-t.keyLen]
	t.acts = t.acts[:len(t.acts)-t.actLen]
	t.ents = t.ents[:len(t.ents)-1]
	return true
}

// Get returns an entry's action without refreshing its idle timer: a
// view valid until the next control-plane write.
// Control-plane API (BfRt reads do not count as hits).
func (t *Table) Get(key []byte) ([]byte, bool) {
	i := t.lookup(key)
	if i < 0 {
		return nil, false
	}
	return t.act(i), true
}

// ExpiredKeys returns the keys whose idle timers have lapsed at time
// now, in sorted order, so the control plane sees them in an order
// independent of the slab's. The model notifies but does not
// auto-delete: on TNA the aging notification goes to the control
// plane, which decides.
func (t *Table) ExpiredKeys(now int64) []string {
	if t.idleTimeoutNs == 0 {
		return nil
	}
	var out []string
	for i, e := range t.ents {
		if now-e.lastHit >= t.idleTimeoutNs {
			out = append(out, string(t.key(i)))
		}
	}
	sort.Strings(out)
	return out
}

// IdleTime returns how long ago the entry was last hit, and whether
// it exists.
func (t *Table) IdleTime(key []byte, now int64) (int64, bool) {
	i := t.lookup(key)
	if i < 0 {
		return 0, false
	}
	return now - t.ents[i].lastHit, true
}

// sramBits is the table's cost in the resource model: each entry
// burns key + action bits plus fixed per-entry overhead (match
// overhead, version bits, pointers), approximated at 64 bits.
func (t *Table) sramBits() int64 {
	const entryOverheadBits = 64
	return int64(t.capacity) * int64(t.keyBits+t.actBits+entryOverheadBits)
}
