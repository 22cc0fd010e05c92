package tofino

import (
	"strings"
	"testing"
)

// echoProg is a minimal test program: counts packets, looks keys up
// in one table, reports misses via digests, and reflects frames.
type echoProg struct {
	tbl          *Table
	hits, misses uint64

	applyTwice bool // fault injection: violate the one-apply rule
}

func newEchoProg(t *testing.T) *echoProg {
	t.Helper()
	tbl, err := NewTable(TableSpec{
		Name: "map", KeyBits: 32, ActionBits: 16, Capacity: 4, IdleTimeoutNs: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &echoProg{tbl: tbl}
}

func (p *echoProg) Name() string     { return "echo" }
func (p *echoProg) Tables() []*Table { return []*Table{p.tbl} }

func (p *echoProg) Process(ctx *Ctx, frame []byte, ingress Port, out []Emit) []Emit {
	key := frame[:4]
	if _, ok := ctx.ApplyBytes(p.tbl, key); ok {
		p.hits++
	} else {
		p.misses++
		ctx.Digest(frame[:4])
	}
	if p.applyTwice {
		ctx.ApplyBytes(p.tbl, key)
	}
	return append(out, Emit{Port: ingress ^ 1, Frame: frame})
}

func load(t *testing.T, prog Program) *Pipeline {
	t.Helper()
	p, err := Load(Config{Name: "test"}, prog)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineBasicFlow(t *testing.T) {
	prog := newEchoProg(t)
	p := load(t, prog)

	frame := []byte{1, 2, 3, 4, 5, 6}
	out := p.ProcessAppend(100, frame, 3, nil)
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("emit = %+v", out)
	}
	if prog.misses != 1 || prog.hits != 0 {
		t.Fatalf("hits, misses = %d, %d", prog.hits, prog.misses)
	}
	if p.PendingDigests() != 1 {
		t.Fatalf("digests = %d", p.PendingDigests())
	}

	// Control plane learns the key; next packet hits.
	if err := prog.tbl.Install(frame[:4], []byte{0, 7}, 150); err != nil {
		t.Fatal(err)
	}
	p.ProcessAppend(200, frame, 3, nil)
	if prog.hits != 1 {
		t.Fatalf("hits = %d", prog.hits)
	}

	ds := p.DrainDigests()
	if len(ds) != 1 || string(ds[0].Data) != string(frame[:4]) || ds[0].EmittedAt != 100 {
		t.Fatalf("digests = %+v", ds)
	}
	if p.PendingDigests() != 0 {
		t.Fatal("drain did not clear")
	}
}

// TestDigestDataIsCopied pins the digest queue's contract: Digest
// copies its payload (the caller's bytes may change right after), a
// queued digest keeps its bytes and timestamp until the drain however
// far later digests grow the arena, and a drain hands the queue's
// buffers back for the passes after it to reuse.
func TestDigestDataIsCopied(t *testing.T) {
	p := load(t, newEchoProg(t))
	frame := []byte{9, 9, 9, 9}
	p.ProcessAppend(0, frame, 0, nil)
	frame[0] = 1 // mutate after emission
	d := p.DrainDigests()
	if d[0].Data[0] != 9 {
		t.Fatal("digest aliases caller memory")
	}

	const n = 300 // ~1.2 KB of payload: the arena regrows several times
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte{byte(i >> 8), byte(i), 0xD1, 0x9E}
	}
	key := func(i int) []byte { return keys[i] }
	out := make([]Emit, 0, 1)
	queue := func() (grew int) {
		for i := 0; i < n; i++ {
			before := cap(p.arena)
			out = p.ProcessAppend(int64(1000+i), key(i), 0, out[:0])
			if cap(p.arena) != before {
				grew++
			}
		}
		return grew
	}
	check := func(ds []Digest) {
		t.Helper()
		if len(ds) != n {
			t.Fatalf("drained %d digests, want %d", len(ds), n)
		}
		for i, d := range ds {
			if string(d.Data) != string(key(i)) || d.EmittedAt != int64(1000+i) {
				t.Fatalf("digest %d = %x@%d, want %x@%d", i, d.Data, d.EmittedAt, key(i), 1000+i)
			}
			if cap(d.Data) != len(d.Data) {
				t.Fatalf("digest %d: cap %d > len %d, an append would write into the arena", i, cap(d.Data), len(d.Data))
			}
		}
	}
	if grew := queue(); grew < 2 {
		t.Fatalf("arena grew %d times over %d digests; the case needs regrowth", grew, n)
	}
	first := p.DrainDigests()
	check(first)
	if p.PendingDigests() != 0 {
		t.Fatal("drain did not clear")
	}

	// The next round reuses both buffers: no growth, no allocation,
	// and the queue lands where the drained one was.
	if grew := queue(); grew != 0 {
		t.Fatalf("arena grew %d times after a drain, want reuse", grew)
	}
	second := p.DrainDigests()
	check(second)
	if &second[0] != &first[0] {
		t.Fatal("digest queue not reused after the drain")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		queue()
		p.DrainDigests()
	}); allocs != 0 {
		t.Fatalf("a drained queue refills with %.1f allocs, want 0", allocs)
	}
}

func TestTableCapacityAndDelete(t *testing.T) {
	tbl, err := NewTable(TableSpec{Name: "t", KeyBits: 8, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install([]byte("a"), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install([]byte("b"), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install([]byte("c"), nil, 0); err == nil {
		t.Fatal("over-capacity install accepted")
	}
	// Replacing an existing key is fine at capacity.
	if err := tbl.Install([]byte("a"), nil, 0); err != nil {
		t.Fatal(err)
	}
	if !tbl.Delete([]byte("a")) || tbl.Delete([]byte("a")) {
		t.Fatal("delete semantics broken")
	}
	if err := tbl.Install([]byte("c"), nil, 0); err != nil {
		t.Fatalf("install after delete: %v", err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestTableIdleTimeout(t *testing.T) {
	tbl, err := NewTable(TableSpec{Name: "t", KeyBits: 8, Capacity: 4, IdleTimeoutNs: 100})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Install([]byte("a"), nil, 0)
	tbl.Install([]byte("b"), nil, 0)
	// Data-plane hit on a at t=50 refreshes its timer.
	if _, ok := tbl.lookupBytes([]byte("a"), 50); !ok {
		t.Fatal("lookup miss")
	}
	exp := tbl.ExpiredKeys(120)
	if len(exp) != 1 || exp[0] != "b" {
		t.Fatalf("expired = %v, want [b]", exp)
	}
	// Control-plane Get must not refresh.
	tbl.Get([]byte("b"))
	if got := tbl.ExpiredKeys(120); len(got) != 1 {
		t.Fatalf("Get refreshed idle timer: %v", got)
	}
	if idle, ok := tbl.IdleTime([]byte("a"), 120); !ok || idle != 70 {
		t.Fatalf("IdleTime = %d,%v", idle, ok)
	}
}

func TestTableNoAgingWhenDisabled(t *testing.T) {
	tbl, _ := NewTable(TableSpec{Name: "t", KeyBits: 8, Capacity: 4})
	tbl.Install([]byte("a"), nil, 0)
	if exp := tbl.ExpiredKeys(1 << 60); exp != nil {
		t.Fatalf("expired = %v with aging disabled", exp)
	}
}

func TestSRAMBudgetEnforced(t *testing.T) {
	// 32k entries of 247-bit keys fit the default budget...
	big := &tableProg{spec: TableSpec{Name: "bases", KeyBits: 247, ActionBits: 16, Capacity: 1 << 15}}
	if _, err := Load(Config{}, big); err != nil {
		t.Fatalf("paper-sized table rejected: %v", err)
	}
	// ...but the next byte-aligned identifier width (23 bits → 8M
	// entries) does not: the resource-model justification for t=15.
	huge := &tableProg{spec: TableSpec{Name: "bases", KeyBits: 247, ActionBits: 24, Capacity: 1 << 23}}
	if _, err := Load(Config{}, huge); err == nil {
		t.Fatal("8M-entry table fit the SRAM budget")
	} else if !strings.Contains(err.Error(), "SRAM") {
		t.Fatalf("unexpected error: %v", err)
	}
}

type tableProg struct {
	spec TableSpec
}

func (p *tableProg) Name() string { return "tableProg" }
func (p *tableProg) Tables() []*Table {
	t, err := NewTable(p.spec)
	if err != nil {
		panic(err)
	}
	return []*Table{t}
}
func (p *tableProg) Process(ctx *Ctx, frame []byte, ingress Port, out []Emit) []Emit { return out }

func TestDoubleApplyPanics(t *testing.T) {
	prog := newEchoProg(t)
	prog.applyTwice = true
	p := load(t, prog)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "applied twice") {
			t.Fatalf("recover = %v", r)
		}
	}()
	p.ProcessAppend(0, []byte{1, 2, 3, 4}, 0, nil)
}

func TestInvalidEmitPortPanics(t *testing.T) {
	p := load(t, &badPortProg{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.ProcessAppend(0, []byte{1}, 0, nil)
}

type badPortProg struct{}

func (badPortProg) Name() string     { return "badport" }
func (badPortProg) Tables() []*Table { return nil }
func (badPortProg) Process(ctx *Ctx, frame []byte, ingress Port, out []Emit) []Emit {
	return append(out, Emit{Port: 99, Frame: frame})
}

func TestDeclareValidation(t *testing.T) {
	cases := []TableSpec{
		{Name: "", KeyBits: 8, Capacity: 1},
		{Name: "x", KeyBits: 0, Capacity: 1},
		{Name: "x", KeyBits: 8, Capacity: 0},
		{Name: "x", KeyBits: 8, Capacity: 1, ActionBits: -1},
		{Name: "x", KeyBits: 8, Capacity: 1, IdleTimeoutNs: -5},
	}
	for i, spec := range cases {
		if _, err := NewTable(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	if _, err := Load(Config{Ports: -1}, newEchoProg(t)); err == nil {
		t.Error("negative port count accepted")
	}
	// A table belongs to the one pipeline that loaded it.
	prog := newEchoProg(t)
	load(t, prog)
	if _, err := Load(Config{}, prog); err == nil {
		t.Error("table loaded into a second pipeline")
	}
	many := make([]*Table, MaxTables+1)
	for i := range many {
		many[i] = newEchoProg(t).tbl
	}
	if _, err := Load(Config{}, &listProg{tables: many}); err == nil {
		t.Errorf("%d tables accepted", len(many))
	}
}

// listProg loads a fixed table list and drops every packet.
type listProg struct{ tables []*Table }

func (p *listProg) Name() string                                                    { return "list" }
func (p *listProg) Tables() []*Table                                                { return p.tables }
func (p *listProg) Process(ctx *Ctx, frame []byte, ingress Port, out []Emit) []Emit { return out }

func TestPipelineAccessors(t *testing.T) {
	prog := newEchoProg(t)
	p := load(t, prog)
	if p.Config().Ports != DefaultPorts {
		t.Fatalf("Config = %+v", p.Config())
	}
	if p.SRAMBits() <= 0 {
		t.Fatal("SRAM accounting missing")
	}
	if p.Program() != prog {
		t.Fatal("Program() is not the loaded program")
	}
	tbl := prog.tbl
	if tbl.Name() != "map" || tbl.Capacity() != 4 {
		t.Fatalf("table accessors: %s/%d", tbl.Name(), tbl.Capacity())
	}
	if _, ok := tbl.Get([]byte("nope")); ok {
		t.Fatal("Get hit on missing key")
	}
	if _, ok := tbl.IdleTime([]byte("nope"), 30); ok {
		t.Fatal("IdleTime hit on missing key")
	}
}

func TestCtxNowAndUndeclaredPanics(t *testing.T) {
	prog := newEchoProg(t)
	p := load(t, prog)
	ctx := Ctx{p: p, now: 77}
	if ctx.Now() != 77 {
		t.Fatal("Now broken")
	}
	other := load(t, newEchoProg(t))
	unloaded := newEchoProg(t)
	for i, tbl := range []*Table{other.Program().Tables()[0], unloaded.tbl} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "not loaded in this pipeline") {
					t.Errorf("table %d (foreign, unloaded): recover = %v", i, r)
				}
			}()
			(&Ctx{p: p}).ApplyBytes(tbl, []byte("kkkk"))
		}()
	}
}
