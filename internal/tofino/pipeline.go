package tofino

import (
	"fmt"
)

// Port identifies a front-panel port of the modelled switch.
type Port int

// Emit is one output packet produced by a program pass: a frame to
// transmit on a port. A pass returning no emissions drops the packet.
type Emit struct {
	Port  Port
	Frame []byte
}

// Digest is a data-plane→control-plane message (TNA digests). ZipLine
// uses them to report unknown bases (paper §5: "unknown bases are
// sent up by means of digests").
type Digest struct {
	Name      string
	Data      []byte
	EmittedAt int64 // virtual ns
}

// Program is the P4 program loaded into a pipeline. Declare runs once
// at load time and must allocate every table and counter the program
// will touch; Process runs per packet and may only reach state through
// the Ctx. This mirrors how P4 fixes all resources at compile time.
type Program interface {
	// Name identifies the program in diagnostics.
	Name() string
	// Declare allocates the program's pipeline resources.
	Declare(a *Alloc) error
	// Process handles one packet arriving on ingress, appending the
	// frames to emit onto out and returning the extended slice. It
	// must do bounded work: the Ctx enforces at most one apply per
	// table per pass and forbids recirculation. Emitted frames may
	// alias program-owned scratch that the next Process call on the
	// same program reuses; callers that keep a frame longer must copy
	// it first.
	Process(ctx *Ctx, frame []byte, ingress Port, out []Emit) []Emit
}

// Config sizes a pipeline.
type Config struct {
	// Name identifies the pipeline (diagnostics only).
	Name string
	// Ports is the number of front-panel ports (Wedge100BF-32X: 32).
	Ports int
}

// DefaultPorts is the port count of a Config that leaves Ports zero.
const DefaultPorts = 32

// sramBudgetBits bounds the total table SRAM a program may declare.
// 64 Mbit approximates the share of a Tofino pipe available for MAU
// table data and is what makes the paper's 15-bit identifier the
// largest feasible aligned choice.
const sramBudgetBits = 64 << 20

// MaxTables bounds the tables one program may declare: the per-pass
// applied set is a 64-bit mask, and a real Tofino pipe runs out of
// match-action stages long before sixty-four tables anyway.
const MaxTables = 64

// Pipeline is a loaded program plus its resources. Handles resolve to
// dense indices at Declare time, so the per-packet path indexes flat
// slices instead of hashing names. It has no clock of its own:
// callers pass virtual timestamps in, which keeps the model
// deterministic under the discrete-event simulator.
type Pipeline struct {
	cfg  Config
	prog Program

	tables   []*Table
	counters []uint64

	tableIdx   map[string]int
	counterIdx map[string]int

	digests []Digest
	sram    int64

	ctx Ctx // reused across packets: Process is single-threaded
}

// Load builds a pipeline: it runs the program's Declare phase and
// verifies the resource budget, the moral equivalent of a successful
// Tofino compile.
func Load(cfg Config, prog Program) (*Pipeline, error) {
	if cfg.Ports == 0 {
		cfg.Ports = DefaultPorts
	}
	if cfg.Ports < 1 {
		return nil, fmt.Errorf("tofino: %d ports", cfg.Ports)
	}
	p := &Pipeline{
		cfg:        cfg,
		prog:       prog,
		tableIdx:   make(map[string]int),
		counterIdx: make(map[string]int),
	}
	if err := prog.Declare(&Alloc{p: p}); err != nil {
		return nil, fmt.Errorf("tofino: declaring %s: %w", prog.Name(), err)
	}
	if p.sram > sramBudgetBits {
		return nil, fmt.Errorf("tofino: program %s needs %d SRAM bits, budget is %d",
			prog.Name(), p.sram, sramBudgetBits)
	}
	return p, nil
}

// Config returns the pipeline's configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Program returns the loaded program (control-plane and
// fault-injection access to program-level state such as epochs).
func (p *Pipeline) Program() Program { return p.prog }

// SRAMBits reports the SRAM the loaded program consumes under the
// resource model.
func (p *Pipeline) SRAMBits() int64 { return p.sram }

// ProcessAppend runs one packet through the program at virtual time
// now, appending the emitted frames onto out and returning the
// extended slice. With a caller-reused out slice the steady-state
// path allocates nothing. Emitted frames may alias program scratch
// valid only until the next ProcessAppend call on this pipeline;
// callers that retain frames longer must copy them.
//
//zipline:noalloc
func (p *Pipeline) ProcessAppend(now int64, frame []byte, ingress Port, out []Emit) []Emit {
	p.ctx = Ctx{p: p, now: now}
	base := len(out)
	out = p.prog.Process(&p.ctx, frame, ingress, out)
	for _, e := range out[base:] {
		if int(e.Port) < 0 || int(e.Port) >= p.cfg.Ports {
			panic(fmt.Sprintf("tofino: program %s emitted on invalid port %d", p.prog.Name(), e.Port))
		}
	}
	return out
}

// Table exposes a table to the control plane by name.
func (p *Pipeline) Table(name string) (*Table, bool) {
	i, ok := p.tableIdx[name]
	if !ok {
		return nil, false
	}
	return p.tables[i], true
}

// Counter returns a counter's current value.
func (p *Pipeline) Counter(name string) uint64 {
	i, ok := p.counterIdx[name]
	if !ok {
		return 0
	}
	return p.counters[i]
}

// Counters returns a copy of all counters.
func (p *Pipeline) Counters() map[string]uint64 {
	out := make(map[string]uint64, len(p.counterIdx))
	for name, i := range p.counterIdx {
		out[name] = p.counters[i]
	}
	return out
}

// DrainDigests removes and returns all queued digests. The control
// plane (or the simulator acting for it) calls this; delivery latency
// is the caller's concern.
func (p *Pipeline) DrainDigests() []Digest {
	d := p.digests
	p.digests = nil
	return d
}

// PendingDigests reports how many digests are queued.
func (p *Pipeline) PendingDigests() int { return len(p.digests) }

// Alloc is handed to Program.Declare to allocate resources.
type Alloc struct {
	p *Pipeline
}

// Table allocates an exact-match table and returns its handle.
func (a *Alloc) Table(spec TableSpec) (TableHandle, error) {
	if _, dup := a.p.tableIdx[spec.Name]; dup {
		return TableHandle{}, fmt.Errorf("tofino: duplicate table %q", spec.Name)
	}
	if len(a.p.tables) >= MaxTables {
		return TableHandle{}, fmt.Errorf("tofino: program declares more than %d tables", MaxTables)
	}
	t, err := newTable(spec)
	if err != nil {
		return TableHandle{}, err
	}
	a.p.tableIdx[spec.Name] = len(a.p.tables)
	a.p.tables = append(a.p.tables, t)
	a.p.sram += t.sramBits()
	return TableHandle{name: spec.Name, idx: len(a.p.tables) - 1}, nil
}

// Counter allocates a named 64-bit counter. Counters are free in the
// resource model (they live in dedicated stats SRAM on hardware).
func (a *Alloc) Counter(name string) (CounterHandle, error) {
	if _, dup := a.p.counterIdx[name]; dup {
		return CounterHandle{}, fmt.Errorf("tofino: duplicate counter %q", name)
	}
	a.p.counterIdx[name] = len(a.p.counters)
	a.p.counters = append(a.p.counters, 0)
	// Counter handles are 1-based so the zero CounterHandle is
	// invalid rather than silently aliasing the first counter.
	return CounterHandle{name: name, idx: len(a.p.counters)}, nil
}

// TableHandle is a program's reference to a declared table, resolved
// to a dense index at Declare time.
type TableHandle struct {
	name string
	idx  int
}

// CounterHandle is a program's reference to a declared counter.
type CounterHandle struct {
	name string
	idx  int
}

// Ctx is the per-packet view of the pipeline given to Process. It
// enforces the architectural restrictions: each table applies at most
// once per pass (P4 pipelines are feed-forward) and the data plane
// cannot write tables.
type Ctx struct {
	p       *Pipeline
	now     int64
	applied uint64 // bitmask over table indices
}

// Now returns the packet's virtual arrival timestamp in nanoseconds.
func (c *Ctx) Now() int64 { return c.now }

// checkApply enforces the single-apply-per-pass rule and resolves the
// handle. A handle whose index doesn't match this pipeline's table of
// the same position belongs to a different Load and panics.
func (c *Ctx) checkApply(h TableHandle) *Table {
	if h.idx < 0 || h.idx >= len(c.p.tables) || c.p.tables[h.idx].name != h.name {
		panic(fmt.Sprintf("tofino: apply of undeclared table %q", h.name))
	}
	bit := uint64(1) << uint(h.idx)
	if c.applied&bit != 0 {
		panic(fmt.Sprintf("tofino: table %q applied twice in one pass (pipelines are feed-forward)", h.name))
	}
	c.applied |= bit
	return c.p.tables[h.idx]
}

// ApplyBytes looks the key up in a table, at most once per pass: the
// data-plane match on a header field. It allocates nothing (the map
// lookup uses the compiler's string-conversion elision).
//
//zipline:noalloc
func (c *Ctx) ApplyBytes(h TableHandle, key []byte) (any, bool) {
	return c.checkApply(h).lookupBytes(key, c.now)
}

// Count increments a counter by n.
//
//zipline:noalloc
func (c *Ctx) Count(h CounterHandle, n uint64) {
	if h.idx < 1 || h.idx > len(c.p.counters) {
		panic(fmt.Sprintf("tofino: undeclared counter %q", h.name))
	}
	c.p.counters[h.idx-1] += n
}

// Digest queues a digest for the control plane.
func (c *Ctx) Digest(name string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.p.digests = append(c.p.digests, Digest{Name: name, Data: cp, EmittedAt: c.now})
}
