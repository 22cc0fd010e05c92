package tofino

import (
	"strings"
	"testing"
)

// echoProg is a minimal test program: counts packets, looks keys up
// in one table, reports misses via digests, and reflects frames.
type echoProg struct {
	tbl    TableHandle
	hits   CounterHandle
	misses CounterHandle

	applyTwice bool // fault injection: violate the one-apply rule
}

func (p *echoProg) Name() string { return "echo" }

func (p *echoProg) Declare(a *Alloc) error {
	var err error
	if p.tbl, err = a.Table(TableSpec{
		Name: "map", KeyBits: 32, ActionBits: 16, Capacity: 4, IdleTimeoutNs: 1000,
	}); err != nil {
		return err
	}
	if p.hits, err = a.Counter("hits"); err != nil {
		return err
	}
	p.misses, err = a.Counter("misses")
	return err
}

func (p *echoProg) Process(ctx *Ctx, frame []byte, ingress Port, out []Emit) []Emit {
	key := frame[:4]
	if _, ok := ctx.ApplyBytes(p.tbl, key); ok {
		ctx.Count(p.hits, 1)
	} else {
		ctx.Count(p.misses, 1)
		ctx.Digest("unknown", frame[:4])
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
	prog := &echoProg{}
	p := load(t, prog)

	frame := []byte{1, 2, 3, 4, 5, 6}
	out := p.ProcessAppend(100, frame, 3, nil)
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("emit = %+v", out)
	}
	if p.Counter("misses") != 1 || p.Counter("hits") != 0 {
		t.Fatalf("counters = %v", p.Counters())
	}
	if p.PendingDigests() != 1 {
		t.Fatalf("digests = %d", p.PendingDigests())
	}

	// Control plane learns the key; next packet hits.
	tbl, ok := p.Table("map")
	if !ok {
		t.Fatal("table not found")
	}
	if err := tbl.Install(frame[:4], []byte{0, 7}, 150); err != nil {
		t.Fatal(err)
	}
	p.ProcessAppend(200, frame, 3, nil)
	if p.Counter("hits") != 1 {
		t.Fatalf("counters = %v", p.Counters())
	}

	ds := p.DrainDigests()
	if len(ds) != 1 || ds[0].Name != "unknown" || ds[0].EmittedAt != 100 {
		t.Fatalf("digests = %+v", ds)
	}
	if p.PendingDigests() != 0 {
		t.Fatal("drain did not clear")
	}
}

func TestDigestDataIsCopied(t *testing.T) {
	prog := &echoProg{}
	p := load(t, prog)
	frame := []byte{9, 9, 9, 9}
	p.ProcessAppend(0, frame, 0, nil)
	frame[0] = 1 // mutate after emission
	d := p.DrainDigests()
	if d[0].Data[0] != 9 {
		t.Fatal("digest aliases caller memory")
	}
}

func TestTableCapacityAndDelete(t *testing.T) {
	tbl, err := newTable(TableSpec{Name: "t", KeyBits: 8, Capacity: 2})
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
	tbl, err := newTable(TableSpec{Name: "t", KeyBits: 8, Capacity: 4, IdleTimeoutNs: 100})
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
	tbl, _ := newTable(TableSpec{Name: "t", KeyBits: 8, Capacity: 4})
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
	h    TableHandle
}

func (p *tableProg) Name() string { return "tableProg" }
func (p *tableProg) Declare(a *Alloc) error {
	var err error
	p.h, err = a.Table(p.spec)
	return err
}
func (p *tableProg) Process(ctx *Ctx, frame []byte, ingress Port, out []Emit) []Emit { return out }

func TestDoubleApplyPanics(t *testing.T) {
	prog := &echoProg{applyTwice: true}
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

func (badPortProg) Name() string           { return "badport" }
func (badPortProg) Declare(a *Alloc) error { return nil }
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
		if _, err := Load(Config{}, &tableProg{spec: spec}); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	// Duplicate declarations.
	if _, err := Load(Config{}, &dupProg{}); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := Load(Config{Ports: -1}, &echoProg{}); err == nil {
		t.Error("negative port count accepted")
	}
}

type dupProg struct{}

func (dupProg) Name() string { return "dup" }
func (dupProg) Declare(a *Alloc) error {
	if _, err := a.Table(TableSpec{Name: "t", KeyBits: 8, Capacity: 1}); err != nil {
		return err
	}
	_, err := a.Table(TableSpec{Name: "t", KeyBits: 8, Capacity: 1})
	return err
}
func (dupProg) Process(ctx *Ctx, frame []byte, ingress Port, out []Emit) []Emit { return out }

func TestPipelineAccessors(t *testing.T) {
	prog := &echoProg{}
	p := load(t, prog)
	if p.Config().Ports != DefaultPorts {
		t.Fatalf("Config = %+v", p.Config())
	}
	if p.SRAMBits() <= 0 {
		t.Fatal("SRAM accounting missing")
	}
	p.ProcessAppend(0, []byte{1, 2, 3, 4}, 0, nil)
	all := p.Counters()
	if all["misses"] != 1 {
		t.Fatalf("Counters() = %v", all)
	}
	// Counters() returns a copy.
	all["misses"] = 99
	if p.Counter("misses") != 1 {
		t.Fatal("Counters() aliases internal state")
	}
	tbl, _ := p.Table("map")
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
	prog := &echoProg{}
	p := load(t, prog)
	ctx := Ctx{p: p, now: 77}
	if ctx.Now() != 77 {
		t.Fatal("Now broken")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("undeclared counter accepted")
			}
		}()
		ctx.Count(CounterHandle{name: "ghost"}, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("undeclared table accepted")
			}
		}()
		(&Ctx{p: p}).ApplyBytes(TableHandle{name: "ghost"}, []byte("k"))
	}()
}
