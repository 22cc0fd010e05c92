package tofino

import (
	"fmt"
	"slices"
	"sort"

	"zipline/internal/slab"
)

// Table is an exact-match match-action table. The data plane may only
// look entries up; installation, deletion and capacity are control
// plane business, exactly as on the hardware (paper §6: "we settled
// on storing basis-ID pairs in regular match-action tables and manage
// them with the control plane").
//
// Action data is fixed-width bytes, ceil(ActionBits/8) per entry, as
// P4 action data is. Every key has the length of the first installed
// one. The keys live in a slab.Index (key bytes at a fixed stride, a
// stored hash each, an open-addressed index over them); entry i's
// action bytes and idle timer sit at i in two slabs beside it. All of
// them grow with the entries, not with the declared capacity. An
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

	// owner is the pipeline that loaded the table and slot its bit in
	// the per-pass applied mask; both are set once, at Load.
	owner *Pipeline
	slot  uint

	ix      slab.Index // the keys, dense: Delete moves the last entry into the hole
	actLen  int        // bytes per action, ceil(actBits/8)
	acts    []byte     // entry i's action at [i*actLen, (i+1)*actLen)
	lastHit []int64    // entry i's last data-plane hit
}

// TableSpec declares a table's geometry.
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

// NewTable builds an empty table. A program builds its tables before
// Load and lists them in Tables; until then Ctx.ApplyBytes rejects it.
func NewTable(s TableSpec) (*Table, error) {
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
		ix:            slab.New(s.Capacity),
		actLen:        (s.ActionBits + 7) / 8,
	}, nil
}

// Name returns the table's declared name.
func (t *Table) Name() string { return t.name }

// Len returns the number of installed entries.
func (t *Table) Len() int { return t.ix.Len() }

// Capacity returns the declared maximum entry count.
func (t *Table) Capacity() int { return t.capacity }

// act returns entry i's action, capped so an append cannot reach the
// next entry's bytes.
func (t *Table) act(i int) []byte {
	return t.acts[i*t.actLen : (i+1)*t.actLen : (i+1)*t.actLen]
}

// lookup returns the entry holding key, or -1. A key of another
// length than the installed ones misses without probing.
func (t *Table) lookup(key []byte) int {
	if len(key) != t.ix.Stride() {
		return -1
	}
	i, ok := t.ix.Find(slab.Hash(key), key)
	if !ok {
		return -1
	}
	return i
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
	t.lastHit[i] = now
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
	if n := t.ix.Stride(); n >= 0 && len(key) != n {
		return fmt.Errorf("tofino: table %s: %d-byte key, want %d", t.name, len(key), n)
	}
	h := slab.Hash(key)
	i, ok := t.ix.Find(h, key)
	if ok {
		copy(t.act(i), action)
		t.lastHit[i] = now
		return nil
	}
	if t.Len() >= t.capacity {
		return fmt.Errorf("tofino: table %s full (%d entries)", t.name, t.capacity)
	}
	t.ix.Add(h, key, i)
	if len(t.lastHit) == cap(t.lastHit) {
		// The index doubled its key slab: double the action and timer
		// slabs alike, up to the capacity.
		n := t.ix.Cap() - len(t.lastHit)
		t.acts = slices.Grow(t.acts, n*t.actLen)
		t.lastHit = slices.Grow(t.lastHit, n)
	}
	t.acts = append(t.acts, action...)
	t.lastHit = append(t.lastHit, now)
	return nil
}

// Clear removes every entry, returning how many were dropped — the
// state a power cycle loses. The slabs keep their storage, so the
// table refills to its old size without allocating.
// Control-plane / fault-injection API.
func (t *Table) Clear() int {
	n := t.Len()
	t.ix.Clear()
	t.acts, t.lastHit = t.acts[:0], t.lastHit[:0]
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
	t.ix.Delete(i)
	last := t.Len()
	copy(t.act(i), t.act(last))
	t.lastHit[i] = t.lastHit[last]
	t.acts, t.lastHit = t.acts[:last*t.actLen], t.lastHit[:last]
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
	for i, hit := range t.lastHit {
		if now-hit >= t.idleTimeoutNs {
			out = append(out, string(t.ix.Key(i)))
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
	return now - t.lastHit[i], true
}

// sramBits is the table's cost in the resource model: each entry
// burns key + action bits plus fixed per-entry overhead (match
// overhead, version bits, pointers), approximated at 64 bits.
func (t *Table) sramBits() int64 {
	const entryOverheadBits = 64
	return int64(t.capacity) * int64(t.keyBits+t.actBits+entryOverheadBits)
}
