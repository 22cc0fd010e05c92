package controlplane

import (
	"math/rand"
	"testing"

	"zipline/internal/netsim"
	"zipline/internal/packet"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

// testbed is host A → encoder switch → host B with a bound
// controller managing the encoder's unified pipeline (encode at
// ingress port 0, decode unused).
type testbed struct {
	sim  *netsim.Sim
	prog *zswitch.Program
	sw   *netsim.Switch
	ctl  *Controller
	a, b *netsim.Host
}

func newTestbed(t *testing.T, swCfg zswitch.Config, cpCfg Config) *testbed {
	t.Helper()
	sim := netsim.NewSim(99)
	if swCfg.Roles == nil {
		swCfg.Roles = map[tofino.Port]zswitch.Role{0: zswitch.RoleEncode}
		swCfg.PortMap = map[tofino.Port]tofino.Port{0: 1}
	}
	prog, err := zswitch.New(swCfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tofino.Load(tofino.Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	sw := netsim.NewSwitch(sim, netsim.SwitchConfig{}, pl)
	aNIC, swA := netsim.NewLink(sim, netsim.LinkConfig{}, "a", "sw0")
	bNIC, swB := netsim.NewLink(sim, netsim.LinkConfig{}, "b", "sw1")
	a := netsim.NewHost(sim, netsim.HostConfig{Name: "a", MaxPPS: 1_000_000}, aNIC)
	b := netsim.NewHost(sim, netsim.HostConfig{Name: "b"}, bNIC)
	sw.AttachPort(0, swA)
	sw.AttachPort(1, swB)
	ctl, err := New(sim, cpCfg, pl, pl, prog.Codec().BasisBits())
	if err != nil {
		t.Fatal(err)
	}
	ctl.Bind(sw)
	return &testbed{sim: sim, prog: prog, sw: sw, ctl: ctl, a: a, b: b}
}

func rawFrame(payload []byte) []byte {
	return packet.Frame(packet.Header{EtherType: packet.EtherTypeRaw}, payload)
}

func TestLearningDelayMatchesPaper(t *testing.T) {
	// The paper's dynamic-learning experiment: repeatedly send the
	// same payload as fast as possible; the gap between the first
	// type 2 and the first type 3 arrival is (1.77 ± 0.08) ms.
	tb := newTestbed(t, zswitch.Config{}, Config{})
	payload := make([]byte, 32)
	rand.New(rand.NewSource(5)).Read(payload)
	tb.a.Stream(0, 20*netsim.Millisecond, func(i uint64) []byte { return rawFrame(payload) })
	tb.sim.Run()

	rx := tb.b.Rx()
	t2 := rx.FirstArrival[packet.TypeUncompressed]
	t3 := rx.FirstArrival[packet.TypeCompressed]
	if t2 < 0 || t3 < 0 {
		t.Fatalf("missing packet types: %+v", rx.FirstArrival)
	}
	gap := t3 - t2
	// Expect ≈1.77 ms within the jitter envelope (±3% per stage plus
	// packet pacing granularity).
	if gap < 1_600_000 || gap > 1_950_000 {
		t.Fatalf("learning delay = %.3f ms, want ≈1.77 ms", float64(gap)/1e6)
	}
	if tb.ctl.Stats().Learned != 1 {
		t.Fatalf("controller stats = %+v", tb.ctl.Stats())
	}
	// Every packet after the mapping went live must be compressed.
	if rx.TypeFrames[packet.TypeCompressed] == 0 || rx.TypeFrames[packet.TypeRaw] != 0 {
		t.Fatalf("type counts = %+v", rx.TypeFrames)
	}
}

func TestDuplicateDigestsIgnored(t *testing.T) {
	tb := newTestbed(t, zswitch.Config{}, Config{})
	payload := make([]byte, 32)
	rand.New(rand.NewSource(6)).Read(payload)
	// Many packets with the same basis arrive long before the first
	// mapping can be installed; only one mapping must be learned.
	tb.a.Stream(0, 5*netsim.Millisecond, func(i uint64) []byte { return rawFrame(payload) })
	tb.sim.Run()
	st := tb.ctl.Stats()
	if st.Learned != 1 {
		t.Fatalf("learned %d mappings, want 1 (stats %+v)", st.Learned, st)
	}
	if st.Duplicates == 0 {
		t.Fatal("expected duplicate digests to be counted")
	}
	if tb.ctl.Mappings() != 1 {
		t.Fatalf("mappings = %d", tb.ctl.Mappings())
	}
}

func TestDistinctBasesLearnConcurrently(t *testing.T) {
	// Two different bases digested back to back must not serialise:
	// both mappings appear ≈1.77 ms after their own digest, not
	// 2×1.77 ms.
	tb := newTestbed(t, zswitch.Config{}, Config{})
	p1 := make([]byte, 32)
	p2 := make([]byte, 32)
	rand.New(rand.NewSource(7)).Read(p1)
	rand.New(rand.NewSource(8)).Read(p2)
	alt := func(i uint64) []byte {
		if i%2 == 0 {
			return rawFrame(p1)
		}
		return rawFrame(p2)
	}
	tb.a.Stream(0, 10*netsim.Millisecond, func(i uint64) []byte { return alt(i) })
	tb.sim.Run()
	if tb.ctl.Stats().Learned != 2 {
		t.Fatalf("learned = %d", tb.ctl.Stats().Learned)
	}
	rx := tb.b.Rx()
	t3 := rx.FirstArrival[packet.TypeCompressed]
	// Every component of the 1.77 ms jitters by at most jitterFrac; the
	// slack covers the frames' own way through hosts, links and switch.
	learn := 1.77e6 * (1 + jitterFrac)
	if bound := netsim.Time(learn) + 100*netsim.Microsecond; t3 > bound {
		t.Fatalf("first compressed at %.2f ms > %.2f ms: learning serialised", float64(t3)/1e6, float64(bound)/1e6)
	}
}

func TestLRURecyclingWhenPoolExhausted(t *testing.T) {
	// A 1-bit pool (2 identifiers) with three bases forces one LRU
	// recycle.
	tb := newTestbed(t, zswitch.Config{IDBits: 1}, Config{IDBits: 1})
	payloads := make([][]byte, 3)
	rng := rand.New(rand.NewSource(9))
	for i := range payloads {
		payloads[i] = make([]byte, 32)
		rng.Read(payloads[i])
	}
	// Send bases 0 and 1 until learned; then keep 1 warm while
	// introducing basis 2.
	tb.a.Stream(0, 8*netsim.Millisecond, func(i uint64) []byte { return rawFrame(payloads[i%2]) })
	tb.sim.RunUntil(10 * netsim.Millisecond)
	if tb.ctl.Mappings() != 2 {
		t.Fatalf("mappings = %d, want 2", tb.ctl.Mappings())
	}
	// Keep basis 1 hot, then digest basis 2: basis 0 must be evicted.
	tb.a.Stream(10*netsim.Millisecond, 12*netsim.Millisecond, func(i uint64) []byte { return rawFrame(payloads[1]) })
	tb.a.Stream(12*netsim.Millisecond, 16*netsim.Millisecond, func(i uint64) []byte { return rawFrame(payloads[2]) })
	tb.sim.Run()

	st := tb.ctl.Stats()
	if st.Recycled != 1 || st.Learned != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if tb.ctl.Mappings() != 2 {
		t.Fatalf("mappings = %d, want 2", tb.ctl.Mappings())
	}
	// Evicted basis 0 now re-encodes as type 2 again.
	s0, _ := tb.prog.Codec().SplitChunk(payloads[0])
	tbl, _ := tb.sw.Pipeline().Table(zswitch.TableBasisToID)
	if _, live := tbl.Get(s0.Basis.Bytes()); live {
		t.Fatal("LRU victim still installed")
	}
}

func TestTTLSweepExpiresIdleMappings(t *testing.T) {
	tb := newTestbed(t,
		zswitch.Config{TTLNs: 5 * netsim.Millisecond},
		Config{SweepIntervalNs: netsim.Millisecond})
	payload := make([]byte, 32)
	rand.New(rand.NewSource(10)).Read(payload)
	tb.a.Stream(0, 4*netsim.Millisecond, func(i uint64) []byte { return rawFrame(payload) })
	// Let the stream end, then idle well past the TTL.
	tb.sim.RunUntil(30 * netsim.Millisecond)
	st := tb.ctl.Stats()
	if st.Learned != 1 || st.Expired != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if tb.ctl.Mappings() != 0 {
		t.Fatalf("mappings = %d after expiry", tb.ctl.Mappings())
	}
	// And the identifier is reusable: a fresh basis learns cleanly.
	p2 := make([]byte, 32)
	rand.New(rand.NewSource(11)).Read(p2)
	tb.a.Stream(tb.sim.Now(), tb.sim.Now()+4*netsim.Millisecond, func(i uint64) []byte { return rawFrame(p2) })
	tb.sim.RunUntil(tb.sim.Now() + 10*netsim.Millisecond)
	if tb.ctl.Stats().Learned != 2 {
		t.Fatalf("stats = %+v", tb.ctl.Stats())
	}
}

func TestDecoderInstalledBeforeEncoder(t *testing.T) {
	// The two-phase protocol: at no point may the encoder table hold
	// a mapping whose identifier the decoder cannot resolve.
	tb := newTestbed(t, zswitch.Config{}, Config{})
	encTbl, _ := tb.sw.Pipeline().Table(zswitch.TableBasisToID)
	decTbl, _ := tb.sw.Pipeline().Table(zswitch.TableIDToBasis)

	payload := make([]byte, 32)
	rand.New(rand.NewSource(12)).Read(payload)
	tb.a.Stream(0, 5*netsim.Millisecond, func(i uint64) []byte { return rawFrame(payload) })

	// Probe the invariant at fine granularity across the learning
	// window.
	for at := netsim.Time(0); at < 6*netsim.Millisecond; at += 50 * netsim.Microsecond {
		tb.sim.RunUntil(at)
		if encTbl.Len() > decTbl.Len() {
			t.Fatalf("at %dus: encoder has %d entries, decoder %d — compressed packets could be stranded",
				at/1000, encTbl.Len(), decTbl.Len())
		}
	}
	tb.sim.Run()
	if ReadMiss := zswitch.ReadStats(tb.sw.Pipeline()).DecodeMiss; ReadMiss != 0 {
		t.Fatalf("decode misses: %d", ReadMiss)
	}
}

func TestConfigValidation(t *testing.T) {
	sim := netsim.NewSim(1)
	if _, err := New(sim, Config{}, nil, nil, 0); err == nil {
		t.Error("basisBits 0 accepted")
	}
	if _, err := New(sim, Config{IDBits: 30}, nil, nil, 247); err == nil {
		t.Error("IDBits 30 accepted")
	}
}
