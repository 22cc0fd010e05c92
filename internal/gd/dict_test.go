package gd

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"zipline/internal/bitvec"
)

func bv(t *testing.T, s string) *bitvec.Vector {
	t.Helper()
	return bitvec.MustParse(s)
}

func TestDictionaryBasic(t *testing.T) {
	d := NewDictionary(2) // 4 slots
	if d.Capacity() != 4 || d.IDBits() != 2 {
		t.Fatalf("capacity %d idbits %d", d.Capacity(), d.IDBits())
	}
	a := bv(t, "0001")
	if _, ok := d.Lookup(a); ok {
		t.Fatal("lookup hit on empty dictionary")
	}
	id, evicted := d.Insert(a)
	if evicted != nil {
		t.Fatal("eviction from empty dictionary")
	}
	got, ok := d.Lookup(a)
	if !ok || got != id {
		t.Fatalf("lookup = %d,%v want %d,true", got, ok, id)
	}
	basis, ok := d.LookupID(id)
	if !ok || !basis.Equal(a) {
		t.Fatal("reverse lookup failed")
	}
}

func TestDictionaryIDsAreDense(t *testing.T) {
	d := NewDictionary(2)
	ids := make(map[uint32]bool)
	for i := 0; i < 4; i++ {
		v := bitvec.FromUint(uint64(i), 4)
		id, evicted := d.Insert(v)
		if evicted != nil {
			t.Fatalf("unexpected eviction at %d", i)
		}
		ids[id] = true
	}
	for id := uint32(0); id < 4; id++ {
		if !ids[id] {
			t.Fatalf("id %d never allocated", id)
		}
	}
}

func TestDictionaryLRUEviction(t *testing.T) {
	d := NewDictionary(1) // 2 slots
	a, b, c := bv(t, "0001"), bv(t, "0010"), bv(t, "0011")
	d.Insert(a)
	d.Insert(b)
	// Touch a so b becomes least recently used.
	d.Lookup(a)
	id, evicted := d.Insert(c)
	if evicted == nil || !evicted.Equal(b) {
		t.Fatalf("evicted %v, want b", evicted)
	}
	if _, ok := d.Lookup(b); ok {
		t.Fatal("b still mapped after eviction")
	}
	if got, ok := d.LookupID(id); !ok || !got.Equal(c) {
		t.Fatal("recycled id does not map to c")
	}
	if _, ok := d.Lookup(a); !ok {
		t.Fatal("a lost")
	}
}

func TestDictionaryInsertExistingRefreshes(t *testing.T) {
	d := NewDictionary(1)
	a, b, c := bv(t, "0001"), bv(t, "0010"), bv(t, "0011")
	idA, _ := d.Insert(a)
	d.Insert(b)
	// Re-insert a: same id, and a becomes most recent.
	idA2, evicted := d.Insert(a)
	if idA2 != idA || evicted != nil {
		t.Fatalf("re-insert changed id %d->%d or evicted", idA, idA2)
	}
	_, evicted = d.Insert(c)
	if evicted == nil || !evicted.Equal(b) {
		t.Fatal("LRU order not refreshed by re-insert")
	}
}

func TestDictionaryLookupIDMisses(t *testing.T) {
	d := NewDictionary(2)
	if _, ok := d.LookupID(0); ok {
		t.Fatal("unmapped id hit")
	}
	if _, ok := d.LookupID(99); ok {
		t.Fatal("out-of-range id hit")
	}
}

func TestDictionaryInsertedBasisIsCopied(t *testing.T) {
	d := NewDictionary(2)
	v := bv(t, "1010")
	id, _ := d.Insert(v)
	v.Flip(0) // mutate caller's copy
	stored, _ := d.LookupID(id)
	if stored.String() != "1010" {
		t.Fatalf("dictionary aliases caller memory: %s", stored)
	}
}

func TestDictionaryChurnProperty(t *testing.T) {
	// Under arbitrary churn the forward and reverse maps stay
	// mutually consistent and size never exceeds capacity.
	d := NewDictionary(3) // 8 slots
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 5000; i++ {
		v := bitvec.FromUint(uint64(rng.Intn(64)), 6)
		switch rng.Intn(3) {
		case 0, 1:
			d.Insert(v)
		case 2:
			d.Lookup(v)
		}
		if d.Len() > d.Capacity() {
			t.Fatalf("size %d exceeds capacity", d.Len())
		}
	}
	// Consistency sweep.
	for id := uint32(0); id < uint32(d.Capacity()); id++ {
		basis, ok := d.LookupID(id)
		if !ok {
			continue
		}
		got, ok2 := d.Lookup(basis)
		if !ok2 || got != id {
			t.Fatalf("id %d: reverse %s does not map back (got %d, %v)", id, basis, got, ok2)
		}
	}
}

func TestNewDictionaryPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDictionary(0)
}

func TestFrozenPrefixLookupAndInsert(t *testing.T) {
	fa, fb := bv(t, "0001"), bv(t, "0010")
	frozen := NewFrozen([]*bitvec.Vector{fa, fb, fa}) // duplicate keeps first id
	if frozen.Len() != 2 {
		t.Fatalf("frozen len = %d, want 2 (dup collapsed)", frozen.Len())
	}
	d := NewDictionaryFrozen(2, frozen) // 4 slots: 2 frozen + 2 dynamic
	if d.base != 2 {
		t.Fatalf("frozen prefix = %d", d.base)
	}
	if id, ok := d.Lookup(fb); !ok || id != 1 {
		t.Fatalf("frozen lookup = %d,%v want 1,true", id, ok)
	}
	// Inserting a frozen basis maps to its permanent id, no dynamic slot.
	if id, ev := d.Insert(fa); id != 0 || ev != nil {
		t.Fatalf("frozen insert = %d,%v", id, ev)
	}
	if d.Len() != 0 {
		t.Fatalf("dynamic len = %d after frozen insert", d.Len())
	}
	// Dynamic inserts start past the frozen prefix.
	x, y, z := bv(t, "0100"), bv(t, "1000"), bv(t, "1100")
	if id, _ := d.Insert(x); id != 2 {
		t.Fatalf("first dynamic id = %d, want 2", id)
	}
	if id, _ := d.Insert(y); id != 3 {
		t.Fatalf("second dynamic id = %d, want 3", id)
	}
	// Pool exhausted: eviction recycles a dynamic id, never a frozen one.
	id, evicted := d.Insert(z)
	if id != 2 || evicted == nil || !evicted.Equal(x) {
		t.Fatalf("eviction = id %d evicted %v, want dynamic id 2 evicting x", id, evicted)
	}
	for fid, want := range []*bitvec.Vector{fa, fb} {
		got, ok := d.LookupID(uint32(fid))
		if !ok || !got.Equal(want) {
			t.Fatalf("frozen id %d lost after eviction", fid)
		}
		got, ok = d.LookupIDTouch(uint32(fid))
		if !ok || !got.Equal(want) {
			t.Fatalf("frozen id %d lost via touch", fid)
		}
	}
}

func TestFrozenDictionaryReset(t *testing.T) {
	frozen := NewFrozen([]*bitvec.Vector{bv(t, "0001")})
	d := NewDictionaryFrozen(2, frozen)
	x := bv(t, "0100")
	id1, _ := d.Insert(x)
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("dynamic len = %d after Reset", d.Len())
	}
	if _, ok := d.Lookup(x); ok {
		t.Fatal("dynamic entry survived Reset")
	}
	if id, ok := d.Lookup(bv(t, "0001")); !ok || id != 0 {
		t.Fatal("frozen entry lost in Reset")
	}
	// Identifier assignment replays identically after Reset.
	id2, _ := d.Insert(x)
	if id2 != id1 {
		t.Fatalf("post-Reset id %d != pre-Reset id %d", id2, id1)
	}
}

var errFrozenLookup = errors.New("frozen lookup returned wrong basis")

func TestFrozenSharedAcrossDictionariesConcurrently(t *testing.T) {
	bases := make([]*bitvec.Vector, 64)
	rng := rand.New(rand.NewSource(31))
	for i := range bases {
		b := bitvec.New(16)
		for j := 0; j < 16; j++ {
			b.Set(j, rng.Intn(2) == 1)
		}
		bases[i] = b
	}
	frozen := NewFrozen(bases)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			d := NewDictionaryFrozen(8, frozen)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				b := bases[rng.Intn(len(bases))]
				id, ok := d.Lookup(b)
				if !ok || !frozen.Basis(id).Equal(b) {
					done <- errFrozenLookup
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDictionaryRejectsOtherBasisLength(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	d := NewDictionary(2)
	d.Insert(bv(t, "0001"))
	mustPanic("Insert", func() { d.Insert(bv(t, "00001")) })
	mustPanic("Lookup", func() { d.Lookup(bv(t, "001")) })
	d.Reset() // the stride outlives the entries
	mustPanic("Insert after Reset", func() { d.Insert(bv(t, "00001")) })
	mustPanic("NewFrozen", func() { NewFrozen([]*bitvec.Vector{bv(t, "0001"), bv(t, "00010")}) })
	df := NewDictionaryFrozen(2, NewFrozen([]*bitvec.Vector{bv(t, "0001")}))
	mustPanic("Lookup under a frozen prefix", func() { df.Lookup(bv(t, "00001")) })
	if d.Len() != 0 || df.Len() != 0 {
		t.Fatal("a rejected basis left an entry behind")
	}
}

// randomBases returns n distinct 31-byte bases, the default codec's
// basis rounded up to whole bytes.
func randomBases(n int, seed int64) []*bitvec.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*bitvec.Vector, n)
	for i := range out {
		b := make([]byte, 31)
		rng.Read(b[4:])
		b[0], b[1], b[2], b[3] = byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		out[i] = bitvec.FromBytes(b, 248)
	}
	return out
}

func TestDictionaryChurnZeroAllocs(t *testing.T) {
	d := NewDictionary(6)
	bases := randomBases(4*d.Capacity(), 3)
	for _, b := range bases { // full, every growth behind it
		d.Insert(b)
	}
	i := 0
	churn := func() {
		b := bases[i%len(bases)] // cyclic over 4× capacity: never present
		i++
		if _, ok := d.Lookup(b); ok {
			t.Fatal("hit in the all-miss cycle")
		}
		if _, ev := d.Insert(b); ev == nil {
			t.Fatal("insert into a full dictionary evicted nothing")
		}
	}
	if allocs := testing.AllocsPerRun(1000, churn); allocs != 0 {
		t.Fatalf("miss + evicting insert = %v allocs/op, want 0", allocs)
	}
	last := bases[(i-1)%len(bases)]
	hit := func() {
		id, ok := d.Lookup(last)
		if b, ok2 := d.LookupIDTouch(id); !ok || !ok2 || !b.Equal(last) {
			t.Fatal("hit lost")
		}
	}
	if allocs := testing.AllocsPerRun(1000, hit); allocs != 0 {
		t.Fatalf("hit = %v allocs/op, want 0", allocs)
	}
}

func TestDictionaryMemoryTracksInserts(t *testing.T) {
	// The widest identifier space: memory must follow the 100 entries,
	// not the 2^24 identifiers.
	bases := randomBases(100, 5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDictionary(24)
	for _, b := range bases {
		d.Insert(b)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 32<<10 {
		t.Fatalf("100 inserts at idBits 24 allocated %d bytes, want < 32 KiB", alloc)
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
}

const benchIDBits = 15 // the default Config: 32 768 entries

// BenchmarkDictionaryChurn is stream-noise's record: a miss, then an
// insert that evicts, on a full default-sized dictionary.
func BenchmarkDictionaryChurn(b *testing.B) {
	d := NewDictionary(benchIDBits)
	bases := randomBases(2*d.Capacity(), 1) // cyclic over 2× capacity: never present
	for _, v := range bases {
		d.Insert(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := bases[i%len(bases)]
		if _, ok := d.Lookup(v); !ok {
			d.Insert(v)
		}
	}
}

// BenchmarkDictionaryHit is a Lookup hit on a full dictionary, cycling
// through every entry so each one moves to the front.
func BenchmarkDictionaryHit(b *testing.B) {
	d := NewDictionary(benchIDBits)
	bases := randomBases(d.Capacity(), 1)
	for _, v := range bases {
		d.Insert(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Lookup(bases[i%len(bases)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkDictionaryFrozenHit is a Lookup answered by the frozen
// prefix (half the identifier space, as TrainDict caps it).
func BenchmarkDictionaryFrozenHit(b *testing.B) {
	bases := randomBases(1<<(benchIDBits-1), 1)
	d := NewDictionaryFrozen(benchIDBits, NewFrozen(bases))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Lookup(bases[i%len(bases)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkDictionaryReset is the checkpoint pattern: a dictionary
// that once held a whole stream's bases is Reset around 16 records.
func BenchmarkDictionaryReset(b *testing.B) {
	d := NewDictionary(benchIDBits)
	bases := randomBases(d.Capacity(), 1)
	for _, v := range bases {
		d.Insert(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset()
		for _, v := range bases[:16] {
			d.Insert(v)
		}
	}
}
