package zswitch_test

import (
	"math/rand"
	"testing"

	"zipline/internal/bitvec"
	"zipline/internal/packet"
	"zipline/internal/tofino"
	. "zipline/internal/zswitch"
)

// Alloc-regression tests: the steady-state dataplane must not touch
// the allocator (tentpole of the zero-allocation refactor). Any
// change that reintroduces a per-packet allocation — a string table
// key, a fresh emit slice, a frame make — fails here rather than
// silently eroding the benchmarks.

// allocsSteadyState measures allocations per ProcessAppend call after
// a warmup pass that lets scratch buffers reach their steady size.
func allocsSteadyState(t *testing.T, pl *tofino.Pipeline, frame []byte) float64 {
	t.Helper()
	scratch := make([]tofino.Emit, 0, 4)
	now := int64(0)
	process := func() {
		now++
		scratch = pl.ProcessAppend(now, frame, 0, scratch[:0])
	}
	process() // warmup: scratch growth is amortised setup, not steady state
	return testing.AllocsPerRun(500, process)
}

func TestEncodeSteadyStateZeroAllocs(t *testing.T) {
	for _, cfg := range []Config{{}, {Packed: true}} {
		prog, pl := loadRole(t, cfg, RoleEncode)
		frame := testRawFrame(prog, 11)
		// Install the basis so the steady state is the type-3 path.
		_, payload, _ := packet.ParseHeader(frame)
		s, err := prog.Codec().SplitChunk(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := InstallBasisToID(pl, s.Basis, 3, 0); err != nil {
			t.Fatal(err)
		}
		if n := allocsSteadyState(t, pl, frame); n != 0 {
			t.Errorf("cfg %+v: encode allocates %.1f per packet, want 0", cfg, n)
		}
	}
}

func TestDecodeSteadyStateZeroAllocs(t *testing.T) {
	for _, cfg := range []Config{{}, {Packed: true}} {
		encProg, encPl := loadRole(t, cfg, RoleEncode)
		raw := testRawFrame(encProg, 12)
		_, payload, _ := packet.ParseHeader(raw)
		s, err := encProg.Codec().SplitChunk(payload)
		if err != nil {
			t.Fatal(err)
		}

		// Type 3 steady state.
		if err := InstallBasisToID(encPl, s.Basis, 9, 0); err != nil {
			t.Fatal(err)
		}
		t3 := clonedEmit(t, encPl, raw)
		_, decPl := loadRole(t, cfg, RoleDecode)
		if err := InstallIDToBasis(decPl, 9, s.Basis, 0); err != nil {
			t.Fatal(err)
		}
		if n := allocsSteadyState(t, decPl, t3); n != 0 {
			t.Errorf("cfg %+v: type-3 decode allocates %.1f per packet, want 0", cfg, n)
		}

		// Type 2 steady state (no dictionary involved).
		encProg2, encPl2 := loadRole(t, cfg, RoleEncode)
		t2 := clonedEmit(t, encPl2, testRawFrame(encProg2, 13))
		_, decPl2 := loadRole(t, cfg, RoleDecode)
		if n := allocsSteadyState(t, decPl2, t2); n != 0 {
			t.Errorf("cfg %+v: type-2 decode allocates %.1f per packet, want 0", cfg, n)
		}
	}
}

func TestForwardSteadyStateZeroAllocs(t *testing.T) {
	prog, pl := loadRole(t, Config{}, RoleForward)
	frame := testRawFrame(prog, 14)
	if n := allocsSteadyState(t, pl, frame); n != 0 {
		t.Errorf("forward allocates %.1f per packet, want 0", n)
	}
}

// TestInstallZeroAllocs pins the control plane's table writes: once a
// pipeline's tables have held n entries, installing n mappings
// allocates nothing, whether each replaces a live entry or refills the
// tables after a Restart cleared them.
func TestInstallZeroAllocs(t *testing.T) {
	prog, pl := loadRole(t, Config{}, RoleDecode)
	bases := make([]*bitvec.Vector, 64)
	for i := range bases {
		_, payload, _ := packet.ParseHeader(testRawFrame(prog, int64(100+i)))
		s, err := prog.Codec().SplitChunk(payload)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = s.Basis
	}
	now := int64(0)
	installAll := func() {
		now++
		for i, b := range bases {
			if err := InstallIDToBasis(pl, uint32(i), b, now); err != nil {
				t.Fatal(err)
			}
			if err := InstallBasisToID(pl, b, uint32(i), now); err != nil {
				t.Fatal(err)
			}
		}
	}
	installAll() // warmup: the tables grow to their high-water mark
	if n := testing.AllocsPerRun(20, installAll); n != 0 {
		t.Errorf("replacing %d mappings allocates %.1f, want 0", len(bases), n)
	}
	refill := func() {
		if _, err := Restart(pl); err != nil {
			t.Fatal(err)
		}
		installAll()
	}
	if n := testing.AllocsPerRun(20, refill); n != 0 {
		t.Errorf("Restart and reinstalling %d mappings allocates %.1f, want 0", len(bases), n)
	}
	for _, name := range []string{TableBasisToID, TableIDToBasis} {
		if tbl, _ := pl.Table(name); tbl.Len() != len(bases) {
			t.Fatalf("%s holds %d entries, want %d", name, tbl.Len(), len(bases))
		}
	}
}

// loadRole builds a one-port pipeline in the given role.
func loadRole(t *testing.T, cfg Config, role Role) (*Program, *tofino.Pipeline) {
	t.Helper()
	cfg.Roles = map[tofino.Port]Role{0: role}
	cfg.PortMap = map[tofino.Port]tofino.Port{0: 1}
	prog, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tofino.Load(tofino.Config{Name: "alloc"}, prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, pl
}

func testRawFrame(prog *Program, seed int64) []byte {
	payload := make([]byte, prog.Codec().ChunkBytes())
	rand.New(rand.NewSource(seed)).Read(payload)
	return packet.Frame(packet.Header{
		Dst:       packet.MAC{2, 0, 0, 0, 0, 2},
		Src:       packet.MAC{2, 0, 0, 0, 0, 1},
		EtherType: packet.EtherTypeRaw,
	}, payload)
}

// clonedEmit runs one frame through the pipeline and returns a
// durable copy of the single emitted frame.
func clonedEmit(t *testing.T, pl *tofino.Pipeline, frame []byte) []byte {
	t.Helper()
	emits := ProcessCloned(pl, 0, frame, 0)
	if len(emits) != 1 {
		t.Fatalf("%d emissions, want 1", len(emits))
	}
	pl.DrainDigests()
	return emits[0].Frame
}
