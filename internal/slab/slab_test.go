package slab

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// modelKeys is the size of the model's key universe, more than its
// largest index holds.
const modelKeys = 48

// modelKey returns universe key k, three bytes long.
func modelKey(k byte) []byte { return []byte{'k', k, k ^ 0x5a} }

// modelHash files even keys in the last five slots at every index size
// (low bits all ones, less k/2 mod 5), so runs wrap the index's end and
// distinct keys share a hash; odd keys take their real Hash.
func modelHash(key []byte) uint64 {
	if k := key[1]; k%2 == 0 {
		return ^uint64(k / 2 % 5)
	}
	return Hash(key)
}

// modelPair drives an Index and a map oracle through the same
// operations and checks the index's invariants after every one.
type modelPair struct {
	t     *testing.T
	x     Index
	limit int
	keys  []string       // entry i's key
	where map[string]int // key -> entry
	// The wrapped-run cases the invariants must have met.
	deleteWraps, rekeyWraps, growWraps, sparseClears int
}

func newModelPair(t *testing.T, limit int) *modelPair {
	return &modelPair{t: t, x: New(limit), limit: limit, where: make(map[string]int)}
}

// wrapped reports whether a probe run wraps the index's end.
func (p *modelPair) wrapped() bool {
	return p.x.slots[0] != 0 && p.x.slots[len(p.x.slots)-1] != 0
}

// step applies one operation: op picks it (and, for Rekey and Delete
// of an absent key, the entry), arg the key.
func (p *modelPair) step(op, arg byte) {
	t, x := p.t, &p.x
	key := modelKey(arg % modelKeys)
	h := modelHash(key)
	_, present := p.where[string(key)]
	switch op % 8 {
	case 0, 1, 2:
		i, ok := x.Find(h, key)
		if ok != present || ok && i != p.where[string(key)] {
			t.Fatalf("Find(%x) = %d, %v; oracle %d, %v", key, i, ok, p.where[string(key)], present)
		}
		if ok || x.Len() == p.limit {
			break
		}
		if 2*(x.Len()+1) > len(x.slots) && p.wrapped() {
			p.growWraps++
		}
		if got := x.Add(h, key, i); got != len(p.keys) {
			t.Fatalf("Add(%x) = entry %d, want %d", key, got, len(p.keys))
		}
		p.where[string(key)] = len(p.keys)
		p.keys = append(p.keys, string(key))
	case 3, 4:
		if present || x.Len() == 0 {
			break
		}
		i := int(op>>3) % x.Len()
		if p.wrapped() {
			p.rekeyWraps++
		}
		x.Rekey(i, h, key)
		delete(p.where, p.keys[i])
		p.keys[i] = string(key)
		p.where[string(key)] = i
	case 5, 6:
		if x.Len() == 0 {
			break
		}
		i, ok := p.where[string(key)]
		if !ok {
			i = int(op>>3) % x.Len()
		}
		if p.wrapped() {
			p.deleteWraps++
		}
		x.Delete(i)
		last := len(p.keys) - 1
		delete(p.where, p.keys[i])
		if i != last {
			p.keys[i] = p.keys[last]
			p.where[p.keys[i]] = i
		}
		p.keys = p.keys[:last]
	case 7:
		if arg%16 != 0 {
			break
		}
		if 16*x.Len() < len(x.slots) && x.Len() > 0 {
			p.sparseClears++
		}
		x.Clear()
		p.keys = p.keys[:0]
		clear(p.where)
	}
	p.check()
}

// check compares the index with the oracle and checks its invariants:
// every entry is found at its slot, every absent key misses at an empty
// slot, the used slots number Len, and the index is at most half full.
func (p *modelPair) check() {
	t, x := p.t, &p.x
	if x.Len() != len(p.keys) || x.Cap() < x.Len() {
		t.Fatalf("Len = %d, Cap = %d; oracle %d entries", x.Len(), x.Cap(), len(p.keys))
	}
	for k := byte(0); k < modelKeys; k++ {
		key := modelKey(k)
		want, present := p.where[string(key)]
		i, ok := x.Find(modelHash(key), key)
		switch {
		case ok != present || ok && i != want:
			t.Fatalf("Find(%x) = %d, %v; oracle entry %d, %v", key, i, ok, want, present)
		case ok && !bytes.Equal(x.Key(i), key):
			t.Fatalf("Key(%d) = %x, want %x", i, x.Key(i), key)
		case !ok && x.slots[i] != 0:
			t.Fatalf("Find(%x) missed at slot %d, which holds entry %d", key, i, x.slots[i]-1)
		}
	}
	used := 0
	for _, n := range x.slots {
		if n != 0 {
			used++
		}
	}
	if n := len(x.slots); used != x.Len() || 2*used > n || n&(n-1) != 0 {
		t.Fatalf("%d of %d slots used by %d entries", used, n, x.Len())
	}
}

// TestModel replays seeded random operation sequences on indexes of
// several limits, and checks that deletion, rekeying and growth each
// met a probe run wrapping the index's end, and a sparse Clear ran.
func TestModel(t *testing.T) {
	var deleteWraps, rekeyWraps, growWraps, sparseClears int
	for _, limit := range []int{1, 2, 5, 8, 17, 40} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("limit%d/seed%d", limit, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*100 + int64(limit)))
				p := newModelPair(t, limit)
				for i := 0; i < 3000; i++ {
					p.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
				}
				deleteWraps += p.deleteWraps
				rekeyWraps += p.rekeyWraps
				growWraps += p.growWraps
				sparseClears += p.sparseClears
			})
		}
	}
	if deleteWraps == 0 || rekeyWraps == 0 || growWraps == 0 || sparseClears == 0 {
		t.Fatalf("wrapped runs met: %d deletions, %d rekeys, %d growths; %d sparse clears", deleteWraps, rekeyWraps, growWraps, sparseClears)
	}
}

// FuzzModel is the same harness over fuzzer-chosen operations: one byte
// of limit, then two bytes a step.
func FuzzModel(f *testing.F) {
	f.Add(byte(7), []byte{0, 0, 0, 2, 0, 4, 0, 6, 0, 8, 3, 10, 5, 2, 7, 16})
	f.Add(byte(39), []byte{0, 1, 0, 2, 0, 4, 0, 6, 0, 8, 0, 10, 0, 12, 5, 4, 4, 14, 7, 0})
	f.Fuzz(func(t *testing.T, limit byte, ops []byte) {
		p := newModelPair(t, 1+int(limit)%40)
		for i := 0; i+1 < len(ops); i += 2 {
			p.step(ops[i], ops[i+1])
		}
	})
}

// BenchmarkSlabFind is a probe of a full 32 768-entry index of 31-byte
// keys, the default dictionary's geometry: a hit, and a miss ending at
// an empty slot.
func BenchmarkSlabFind(b *testing.B) {
	const n = 1 << 15
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 2*n) // the first n present, the rest absent
	hashes := make([]uint64, len(keys))
	x := New(n)
	for i := range keys {
		keys[i] = make([]byte, 31)
		rng.Read(keys[i])
		hashes[i] = Hash(keys[i])
		if i < n {
			slot, _ := x.Find(hashes[i], keys[i])
			x.Add(hashes[i], keys[i], slot)
		}
	}
	for _, bc := range []struct {
		name string
		from int
		hit  bool
	}{{"hit", 0, true}, {"miss", n, false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := bc.from + i%n
				if _, ok := x.Find(hashes[j], keys[j]); ok != bc.hit {
					b.Fatalf("key %d: hit %v", j, ok)
				}
			}
		})
	}
}
