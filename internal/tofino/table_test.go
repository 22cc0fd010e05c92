package tofino

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// modelTable is the oracle of TestTableModel: a map keyed by string,
// with the table's semantics (replace in place, capacity counts
// distinct keys, a data-plane hit refreshes the idle timer and a Get
// does not) plus the two rules of fixed-width entries: an action must
// be ceil(ActionBits/8) bytes, and every key as long as the first
// installed one.
type modelTable struct {
	capacity int
	actLen   int
	keyLen   int
	timeout  int64
	m        map[string]modelEntry
}

type modelEntry struct {
	act     []byte
	lastHit int64
}

func (m *modelTable) install(key, act []byte, now int64) bool {
	if len(act) != m.actLen {
		return false
	}
	if m.keyLen < 0 {
		m.keyLen = len(key)
	}
	if len(key) != m.keyLen {
		return false
	}
	if _, ok := m.m[string(key)]; !ok && len(m.m) >= m.capacity {
		return false
	}
	m.m[string(key)] = modelEntry{act: bytes.Clone(act), lastHit: now}
	return true
}

func (m *modelTable) expired(now int64) []string {
	if m.timeout == 0 {
		return nil
	}
	var out []string
	for k, e := range m.m {
		if now-e.lastHit >= m.timeout {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// modelPair drives a Table and its oracle through the same operations
// and compares them after every one.
type modelPair struct {
	t   *testing.T
	tbl *Table
	ref *modelTable
	now int64
}

func newModelPair(t *testing.T, capacity, actBits int, timeout int64) *modelPair {
	tbl, err := NewTable(TableSpec{Name: "m", KeyBits: 16, ActionBits: actBits, Capacity: capacity, IdleTimeoutNs: timeout})
	if err != nil {
		t.Fatal(err)
	}
	return &modelPair{t: t, tbl: tbl, ref: &modelTable{
		capacity: capacity, actLen: (actBits + 7) / 8, keyLen: -1, timeout: timeout,
		m: make(map[string]modelEntry),
	}}
}

// modelKey picks one of 24 two-byte keys, more than any model table
// holds, or now and then a key of another length.
func modelKey(arg byte) []byte {
	switch {
	case arg >= 248:
		return []byte{arg}
	case arg >= 240:
		return []byte{'k', arg % 24, 0}
	}
	return []byte{'k', arg % 24}
}

// step applies one operation: op picks it and how far the clock
// advances first, arg its key.
func (p *modelPair) step(op, arg byte) {
	t, tbl, ref := p.t, p.tbl, p.ref
	p.now += int64(op >> 5)
	key := modelKey(arg)
	switch op % 10 {
	case 0, 1, 2:
		act := make([]byte, ref.actLen, ref.actLen+1)
		for i := range act {
			act[i] = op ^ arg + byte(i)
		}
		if op&0x18 == 0x18 {
			act = append(act, 0) // wrong action length
		}
		err := tbl.Install(key, act, p.now)
		if ok := ref.install(key, act, p.now); ok != (err == nil) {
			t.Fatalf("Install(%x, %x) = %v, oracle accepts %v", key, act, err, ok)
		}
	case 3, 4, 5:
		_, had := ref.m[string(key)]
		if got := tbl.Delete(key); got != had {
			t.Fatalf("Delete(%x) = %v, oracle had it %v", key, got, had)
		}
		delete(ref.m, string(key))
	case 6:
		act, hit := tbl.lookupBytes(key, p.now)
		e, want := ref.m[string(key)]
		if hit != want || !bytes.Equal(act, e.act) || cap(act) != len(act) {
			t.Fatalf("lookupBytes(%x) = %x (cap %d), %v; oracle %x, %v", key, act, cap(act), hit, e.act, want)
		}
		if want {
			e.lastHit = p.now
			ref.m[string(key)] = e
		}
	case 7:
		act, hit := tbl.Get(key)
		e, want := ref.m[string(key)]
		if hit != want || !bytes.Equal(act, e.act) {
			t.Fatalf("Get(%x) = %x, %v; oracle %x, %v", key, act, hit, e.act, want)
		}
	case 8:
		idle, hit := tbl.IdleTime(key, p.now)
		e, want := ref.m[string(key)]
		if hit != want || want && idle != p.now-e.lastHit {
			t.Fatalf("IdleTime(%x) = %d, %v; oracle %d, %v", key, idle, hit, p.now-e.lastHit, want)
		}
	case 9:
		if arg%32 == 0 {
			if n := tbl.Clear(); n != len(ref.m) {
				t.Fatalf("Clear = %d, oracle held %d", n, len(ref.m))
			}
			clear(ref.m)
			break
		}
		if got, want := tbl.ExpiredKeys(p.now), ref.expired(p.now); !slices.Equal(got, want) {
			t.Fatalf("ExpiredKeys(%d) = %q, oracle %q", p.now, got, want)
		}
	}
	p.check()
}

// check compares the whole table with the oracle, reading through Get
// and IdleTime (neither refreshes a timer). The index's own invariants
// are internal/slab's to check.
func (p *modelPair) check() {
	t, tbl, ref := p.t, p.tbl, p.ref
	if tbl.Len() != len(ref.m) {
		t.Fatalf("Len = %d, oracle %d", tbl.Len(), len(ref.m))
	}
	for _, k := range slices.Sorted(maps.Keys(ref.m)) {
		e := ref.m[k]
		act, ok := tbl.Get([]byte(k))
		idle, _ := tbl.IdleTime([]byte(k), p.now)
		if !ok || !bytes.Equal(act, e.act) || idle != p.now-e.lastHit {
			t.Fatalf("entry %x = %x, %v, idle %d; oracle %x, idle %d", k, act, ok, idle, e.act, p.now-e.lastHit)
		}
	}
}

func TestTableModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 6, 8, 16} {
		for _, actBits := range []int{0, 5, 16, 24} {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("cap%d/act%d/seed%d", capacity, actBits, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed*1000 + int64(capacity*32+actBits)))
					p := newModelPair(t, capacity, actBits, 40*(seed%2))
					for i := 0; i < 2000; i++ {
						p.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
					}
				})
			}
		}
	}
}

// FuzzTableModel is the same harness over fuzzer-chosen operations:
// one byte of geometry, then two bytes a step.
func FuzzTableModel(f *testing.F) {
	f.Add(byte(0x13), []byte{0, 1, 0, 2, 0, 3, 3, 2, 6, 1, 7, 3, 9, 1, 9, 0, 0, 4})
	f.Add(byte(0x45), []byte{1, 5, 2, 29, 240, 7, 3, 5, 3, 29, 8, 7, 0, 250, 24, 6})
	f.Fuzz(func(t *testing.T, geometry byte, ops []byte) {
		p := newModelPair(t, 1+int(geometry%16), []int{0, 5, 16, 24}[geometry>>4&3], 40*int64(geometry>>6&1))
		for i := 0; i+1 < len(ops); i += 2 {
			p.step(ops[i], ops[i+1])
		}
	})
}

// BenchmarkTableInstall is the control plane's steady state: replacing
// entries of a full 32 768-entry table, keys and actions as zswitch's
// decoder table holds them.
func BenchmarkTableInstall(b *testing.B) {
	tbl, keys, act := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.Install(keys[i%len(keys)], act, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableLookup is the data-plane hit on the same table.
func BenchmarkTableLookup(b *testing.B) {
	tbl, keys, _ := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.lookupBytes(keys[i%len(keys)], int64(i)); !ok {
			b.Fatal("miss")
		}
	}
}

func benchTable(b *testing.B) (*Table, [][]byte, []byte) {
	const n = 1 << 15
	tbl, err := NewTable(TableSpec{Name: "id_to_basis", KeyBits: 15, ActionBits: 247, Capacity: n})
	if err != nil {
		b.Fatal(err)
	}
	act := make([]byte, 31)
	rand.New(rand.NewSource(1)).Read(act)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte{0, 0, byte(i >> 8), byte(i)}
		if err := tbl.Install(keys[i], act, 0); err != nil {
			b.Fatal(err)
		}
	}
	return tbl, keys, act
}
