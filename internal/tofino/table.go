package tofino

import (
	"fmt"
	"sort"
)

// Table is an exact-match match-action table. The data plane may only
// look entries up; installation, deletion and capacity are control
// plane business, exactly as on the hardware (paper §6: "we settled
// on storing basis-ID pairs in regular match-action tables and manage
// them with the control plane").
type Table struct {
	name     string
	keyBits  int
	actBits  int
	capacity int
	// idleTimeoutNs > 0 enables TNA-style per-entry aging.
	idleTimeoutNs int64
	entries       map[string]*tableEntry
}

type tableEntry struct {
	action  any
	lastHit int64
}

// TableSpec declares a table's geometry at program Declare time.
type TableSpec struct {
	Name string
	// KeyBits and ActionBits size the SRAM cost model.
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
		entries:       make(map[string]*tableEntry),
	}, nil
}

// Name returns the table's declared name.
func (t *Table) Name() string { return t.name }

// Len returns the number of installed entries.
func (t *Table) Len() int { return len(t.entries) }

// Capacity returns the declared maximum entry count.
func (t *Table) Capacity() int { return t.capacity }

// lookupBytes is the data-plane path: a hit refreshes the entry's
// idle timer (TNA resets the TTL on data-plane match). The map index
// uses the string(key) conversion directly so the compiler elides the
// string allocation — the per-packet match costs a hash, not a copy.
//
//zipline:noalloc
func (t *Table) lookupBytes(key []byte, now int64) (any, bool) {
	e, ok := t.entries[string(key)]
	if !ok {
		return nil, false
	}
	e.lastHit = now
	return e.action, true
}

// Install adds or replaces an entry. Control-plane API.
func (t *Table) Install(key string, action any, now int64) error {
	if _, exists := t.entries[key]; !exists && len(t.entries) >= t.capacity {
		return fmt.Errorf("tofino: table %s full (%d entries)", t.name, t.capacity)
	}
	t.entries[key] = &tableEntry{action: action, lastHit: now}
	return nil
}

// Clear removes every entry, returning how many were dropped — the
// state a power cycle loses. Control-plane / fault-injection API.
func (t *Table) Clear() int {
	n := len(t.entries)
	clear(t.entries)
	return n
}

// Delete removes an entry, reporting whether it existed.
// Control-plane API.
func (t *Table) Delete(key string) bool {
	if _, ok := t.entries[key]; !ok {
		return false
	}
	delete(t.entries, key)
	return true
}

// Get returns an entry's action without refreshing its idle timer.
// Control-plane API (BfRt reads do not count as hits).
func (t *Table) Get(key string) (any, bool) {
	e, ok := t.entries[key]
	if !ok {
		return nil, false
	}
	return e.action, true
}

// ExpiredKeys returns the keys whose idle timers have lapsed at time
// now, in sorted order (map iteration alone would leak scheduling
// nondeterminism into the control plane). The model notifies but does
// not auto-delete: on TNA the aging notification goes to the control
// plane, which decides.
func (t *Table) ExpiredKeys(now int64) []string {
	if t.idleTimeoutNs == 0 {
		return nil
	}
	var out []string
	for k, e := range t.entries {
		if now-e.lastHit >= t.idleTimeoutNs {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// IdleTime returns how long ago the entry was last hit, and whether
// it exists.
func (t *Table) IdleTime(key string, now int64) (int64, bool) {
	e, ok := t.entries[key]
	if !ok {
		return 0, false
	}
	return now - e.lastHit, true
}

// sramBits is the table's cost in the resource model: each entry
// burns key + action bits plus fixed per-entry overhead (match
// overhead, version bits, pointers), approximated at 64 bits.
func (t *Table) sramBits() int64 {
	const entryOverheadBits = 64
	return int64(t.capacity) * int64(t.keyBits+t.actBits+entryOverheadBits)
}
