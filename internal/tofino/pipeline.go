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
// sent up by means of digests"). Data is a view into the pipeline's
// digest arena (see DrainDigests).
type Digest struct {
	Data      []byte
	EmittedAt int64 // virtual ns
}

// Program is the P4 program loaded into a pipeline. It builds its
// tables (NewTable) before Load and keeps its counters as its own
// state; Load checks the tables against the resource model and binds
// them to the pipeline. Process runs per packet and reaches tables
// only through the Ctx. This mirrors how P4 fixes all resources at
// compile time.
type Program interface {
	// Name identifies the program in diagnostics.
	Name() string
	// Tables lists every table Process may apply.
	Tables() []*Table
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

// Pipeline is a loaded program plus its resources. It has no clock
// of its own: callers pass virtual timestamps in, which keeps the
// model deterministic under the discrete-event simulator.
type Pipeline struct {
	cfg  Config
	prog Program

	digests []Digest // queued; each Data is a view into arena
	arena   []byte
	sram    int64

	ctx Ctx // reused across packets: Process is single-threaded
}

// Load builds a pipeline: it verifies the program's tables against the
// resource budget, the moral equivalent of a successful Tofino
// compile, and binds them to the pipeline. A table belongs to one
// pipeline for good.
func Load(cfg Config, prog Program) (*Pipeline, error) {
	if cfg.Ports == 0 {
		cfg.Ports = DefaultPorts
	}
	if cfg.Ports < 1 {
		return nil, fmt.Errorf("tofino: %d ports", cfg.Ports)
	}
	tables := prog.Tables()
	if len(tables) > MaxTables {
		return nil, fmt.Errorf("tofino: program %s declares more than %d tables", prog.Name(), MaxTables)
	}
	p := &Pipeline{cfg: cfg, prog: prog}
	for _, t := range tables {
		if t.owner != nil {
			return nil, fmt.Errorf("tofino: program %s: table %s is already loaded", prog.Name(), t.name)
		}
		p.sram += t.sramBits()
	}
	if p.sram > sramBudgetBits {
		return nil, fmt.Errorf("tofino: program %s needs %d SRAM bits, budget is %d",
			prog.Name(), p.sram, sramBudgetBits)
	}
	for i, t := range tables {
		t.owner, t.slot = p, uint(i)
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

// DrainDigests removes and returns all queued digests. The control
// plane (or the simulator acting for it) calls this; delivery latency
// is the caller's concern. The digests and their Data are views valid
// until the next ProcessAppend, which reuses them.
func (p *Pipeline) DrainDigests() []Digest {
	d := p.digests
	p.digests, p.arena = p.digests[:0], p.arena[:0]
	return d
}

// PendingDigests reports how many digests are queued.
func (p *Pipeline) PendingDigests() int { return len(p.digests) }

// Ctx is the per-packet view of the pipeline given to Process. It
// enforces the architectural restrictions: each table applies at most
// once per pass (P4 pipelines are feed-forward) and the data plane
// cannot write tables.
type Ctx struct {
	p       *Pipeline
	now     int64
	applied uint64 // bitmask over table slots
}

// Now returns the packet's virtual arrival timestamp in nanoseconds.
func (c *Ctx) Now() int64 { return c.now }

// ApplyBytes looks the key up in a table, at most once per pass: the
// data-plane match on a header field. A hit returns the entry's
// fixed-width action bytes, a view into the table valid only until its
// next control-plane write. It allocates nothing. Applying a table
// twice in one pass, or a table this pipeline did not load, panics.
//
//zipline:noalloc
func (c *Ctx) ApplyBytes(t *Table, key []byte) ([]byte, bool) {
	if t.owner != c.p {
		panic(fmt.Sprintf("tofino: apply of table %q, not loaded in this pipeline", t.name))
	}
	bit := uint64(1) << t.slot
	if c.applied&bit != 0 {
		panic(fmt.Sprintf("tofino: table %q applied twice in one pass (pipelines are feed-forward)", t.name))
	}
	c.applied |= bit
	return t.lookupBytes(key, c.now)
}

// Digest queues a digest for the control plane, copying data into the
// pipeline's digest arena; it allocates nothing once the queue and the
// arena have grown to their high-water mark.
//
//zipline:noalloc
func (c *Ctx) Digest(data []byte) {
	p := c.p
	start := len(p.arena)
	p.arena = append(p.arena, data...)
	p.digests = append(p.digests, Digest{Data: p.arena[start:len(p.arena):len(p.arena)], EmittedAt: c.now})
}
