package zswitch

import (
	"bytes"
	"math/rand"
	"testing"

	"zipline/internal/packet"
	"zipline/internal/tofino"
)

var testMACs = struct{ a, b packet.MAC }{
	a: packet.MAC{0x02, 0, 0, 0, 0, 1},
	b: packet.MAC{0x02, 0, 0, 0, 0, 2},
}

// loadPair builds the canonical two-switch testbed: encoder pipeline
// (port 0 encode → port 1) and decoder pipeline (port 0 decode →
// port 1).
func loadPair(t *testing.T, cfg Config) (encProg, decProg *Program, enc, dec *tofino.Pipeline) {
	t.Helper()
	encCfg := cfg
	encCfg.Roles = map[tofino.Port]Role{0: RoleEncode}
	encCfg.PortMap = map[tofino.Port]tofino.Port{0: 1}
	decCfg := cfg
	decCfg.Roles = map[tofino.Port]Role{0: RoleDecode}
	decCfg.PortMap = map[tofino.Port]tofino.Port{0: 1}

	var err error
	encProg, err = New(encCfg)
	if err != nil {
		t.Fatal(err)
	}
	decProg, err = New(decCfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err = tofino.Load(tofino.Config{Name: "enc"}, encProg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err = tofino.Load(tofino.Config{Name: "dec"}, decProg)
	if err != nil {
		t.Fatal(err)
	}
	return
}

// ProcessCloned runs one frame through pl and returns durable
// emissions: every frame is cloned out of the program scratch that the
// next ProcessAppend call on pl overwrites. Exported so the external
// zswitch_test package shares it.
func ProcessCloned(pl *tofino.Pipeline, now int64, frame []byte, ingress tofino.Port) []tofino.Emit {
	out := pl.ProcessAppend(now, frame, ingress, nil)
	for i := range out {
		out[i].Frame = append([]byte(nil), out[i].Frame...)
	}
	return out
}

func rawFrame(payload []byte) []byte {
	return packet.Frame(packet.Header{
		Dst: testMACs.b, Src: testMACs.a, EtherType: packet.EtherTypeRaw,
	}, payload)
}

func TestEncodeUnknownBasisProducesType2(t *testing.T) {
	_, _, enc, dec := loadPair(t, Config{})
	payload := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(payload)
	frame := rawFrame(payload)

	out := ProcessCloned(enc, 0, frame, 0)
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("emit = %+v", out)
	}
	hdr, encPayload, err := packet.ParseHeader(out[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Type() != packet.TypeUncompressed {
		t.Fatalf("type = %v, want type 2", hdr.Type())
	}
	if len(encPayload) != 33 {
		t.Fatalf("type 2 payload = %d bytes, want 33", len(encPayload))
	}
	if enc.PendingDigests() != 1 {
		t.Fatalf("digests = %d, want 1", enc.PendingDigests())
	}
	st := ReadStats(enc)
	if st.RawToType2 != 1 || st.RawToType3 != 0 || st.Digests != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// The type 2 packet decodes without any dictionary state.
	back := ProcessCloned(dec, 10, out[0].Frame, 0)
	if len(back) != 1 {
		t.Fatalf("decode emit = %+v", back)
	}
	gotHdr, gotPayload, _ := packet.ParseHeader(back[0].Frame)
	if gotHdr.Type() != packet.TypeRaw || !bytes.Equal(gotPayload, payload) {
		t.Fatalf("decode mismatch: %v %x", gotHdr.Type(), gotPayload)
	}
	if ReadStats(dec).Type2ToRaw != 1 {
		t.Fatalf("decoder stats = %+v", ReadStats(dec))
	}
}

func TestEncodeKnownBasisProducesType3(t *testing.T) {
	encProg, _, enc, dec := loadPair(t, Config{})
	payload := make([]byte, 32)
	rand.New(rand.NewSource(2)).Read(payload)
	frame := rawFrame(payload)

	// Learn the basis (simulating the control plane): decoder first.
	s, err := encProg.Codec().SplitChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	const id = 1234
	if err := InstallIDToBasis(dec, id, s.Basis, 0); err != nil {
		t.Fatal(err)
	}
	if err := InstallBasisToID(enc, s.Basis, id, 0); err != nil {
		t.Fatal(err)
	}

	out := ProcessCloned(enc, 0, frame, 0)
	hdr, encPayload, _ := packet.ParseHeader(out[0].Frame)
	if hdr.Type() != packet.TypeCompressed {
		t.Fatalf("type = %v, want type 3", hdr.Type())
	}
	if len(encPayload) != 3 {
		t.Fatalf("type 3 payload = %d bytes, want 3", len(encPayload))
	}
	if ReadStats(enc).RawToType3 != 1 {
		t.Fatalf("stats = %+v", ReadStats(enc))
	}

	back := ProcessCloned(dec, 1, out[0].Frame, 0)
	_, gotPayload, _ := packet.ParseHeader(back[0].Frame)
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("round trip failed: %x != %x", gotPayload, payload)
	}
	if ReadStats(dec).Type3ToRaw != 1 {
		t.Fatalf("decoder stats = %+v", ReadStats(dec))
	}
}

func TestEncodePreservesTail(t *testing.T) {
	// Payload longer than one chunk: the tail rides along verbatim
	// in both directions.
	_, _, enc, dec := loadPair(t, Config{})
	payload := make([]byte, 50)
	rand.New(rand.NewSource(3)).Read(payload)
	out := ProcessCloned(enc, 0, rawFrame(payload), 0)
	back := ProcessCloned(dec, 1, out[0].Frame, 0)
	_, gotPayload, _ := packet.ParseHeader(back[0].Frame)
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("tail lost in translation")
	}
}

func TestShortPayloadForwarded(t *testing.T) {
	_, _, enc, _ := loadPair(t, Config{})
	payload := []byte{1, 2, 3}
	frame := rawFrame(payload)
	out := ProcessCloned(enc, 0, frame, 0)
	if !bytes.Equal(out[0].Frame, frame) {
		t.Fatal("short frame modified")
	}
	if st := ReadStats(enc); st.TooShort != 1 || st.Encoded() != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDecodeMissDropsAndCounts(t *testing.T) {
	_, decProg, _, dec := loadPair(t, Config{})
	// Hand-craft a type 3 frame with an unmapped ID.
	f := decProg.Format()
	out := packet.AppendHeader(nil, packet.Header{
		Dst: testMACs.b, Src: testMACs.a, EtherType: packet.EtherTypeCompressed,
	})
	out = f.AppendType3(out, packet.Compressed{Deviation: 5, Extra: 0, ID: 77})
	emits := ProcessCloned(dec, 0, out, 0)
	if len(emits) != 0 {
		t.Fatalf("unmapped type 3 was emitted: %+v", emits)
	}
	if ReadStats(dec).DecodeMiss != 1 {
		t.Fatalf("stats = %+v", ReadStats(dec))
	}
}

func TestForwardRoleIsNoOp(t *testing.T) {
	cfg := Config{
		Roles:   map[tofino.Port]Role{},
		PortMap: map[tofino.Port]tofino.Port{0: 1, 1: 0},
	}
	prog, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tofino.Load(tofino.Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1500)
	frame := rawFrame(payload)
	out := ProcessCloned(pl, 0, frame, 0)
	if len(out) != 1 || !bytes.Equal(out[0].Frame, frame) || out[0].Port != 1 {
		t.Fatal("no-op forwarding altered the frame")
	}
	if ReadStats(pl).Forwarded != 1 {
		t.Fatalf("stats = %+v", ReadStats(pl))
	}
}

func TestUnmappedPortDrops(t *testing.T) {
	_, _, enc, _ := loadPair(t, Config{})
	if out := ProcessCloned(enc, 0, rawFrame(make([]byte, 32)), 7); out != nil {
		t.Fatal("packet on unmapped port not dropped")
	}
}

func TestNonRawTrafficPassesEncoder(t *testing.T) {
	// Already-processed packets (or any foreign EtherType) pass the
	// encode role untouched.
	_, _, enc, _ := loadPair(t, Config{})
	frame := packet.Frame(packet.Header{
		Dst: testMACs.b, Src: testMACs.a, EtherType: 0x0800,
	}, make([]byte, 64))
	out := ProcessCloned(enc, 0, frame, 0)
	if !bytes.Equal(out[0].Frame, frame) {
		t.Fatal("foreign frame modified")
	}
}

func TestManyChunksRoundTripThroughPair(t *testing.T) {
	encProg, _, enc, dec := loadPair(t, Config{TTLNs: 0})
	rng := rand.New(rand.NewSource(4))
	nextID := uint32(0)
	for i := 0; i < 300; i++ {
		payload := make([]byte, 32)
		rng.Read(payload)
		if i%3 == 0 {
			// Pre-learn a third of the bases.
			s, _ := encProg.Codec().SplitChunk(payload)
			InstallIDToBasis(dec, nextID, s.Basis, int64(i))
			InstallBasisToID(enc, s.Basis, nextID, int64(i))
			nextID++
		}
		out := ProcessCloned(enc, int64(i), rawFrame(payload), 0)
		back := ProcessCloned(dec, int64(i), out[0].Frame, 0)
		_, got, _ := packet.ParseHeader(back[0].Frame)
		if !bytes.Equal(got, payload) {
			t.Fatalf("packet %d did not round trip", i)
		}
	}
	st := ReadStats(enc)
	if st.RawToType3 != 100 || st.RawToType2 != 200 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPackedModeSmallerOnWire(t *testing.T) {
	_, _, encA, _ := loadPair(t, Config{})
	_, _, encP, _ := loadPair(t, Config{Packed: true})
	payload := make([]byte, 32)
	rand.New(rand.NewSource(5)).Read(payload)
	a := ProcessCloned(encA, 0, rawFrame(payload), 0)
	p := ProcessCloned(encP, 0, rawFrame(payload), 0)
	if lenA, lenP := len(a[0].Frame), len(p[0].Frame); lenA-lenP != 1 {
		t.Fatalf("aligned %dB vs packed %dB, want 1 byte difference", lenA, lenP)
	}
}

func TestExpiredBasesSurface(t *testing.T) {
	encProg, _, enc, _ := loadPair(t, Config{TTLNs: 1000})
	payload := make([]byte, 32)
	rand.New(rand.NewSource(6)).Read(payload)
	s, _ := encProg.Codec().SplitChunk(payload)
	InstallBasisToID(enc, s.Basis, 1, 0)
	if exp := ExpiredBases(enc, 500); len(exp) != 0 {
		t.Fatalf("premature expiry: %v", exp)
	}
	// A data-plane hit refreshes the timer.
	ProcessCloned(enc, 900, rawFrame(payload), 0)
	if exp := ExpiredBases(enc, 1500); len(exp) != 0 {
		t.Fatalf("hit did not refresh TTL: %v", exp)
	}
	if exp := ExpiredBases(enc, 2500); len(exp) != 1 {
		t.Fatalf("expiry missing: %v", exp)
	}
}

func TestInstallOnWrongPipeline(t *testing.T) {
	// A pipeline loaded with a non-ZipLine program has no dictionary
	// tables; the control-plane API must fail loudly.
	pl, err := tofino.Load(tofino.Config{}, &nopProgram{})
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := New(Config{})
	s, _ := prog.Codec().SplitChunk(make([]byte, 32))
	if err := InstallBasisToID(pl, s.Basis, 1, 0); err == nil {
		t.Error("install on foreign pipeline succeeded")
	}
	if err := InstallIDToBasis(pl, 1, s.Basis, 0); err == nil {
		t.Error("install on foreign pipeline succeeded")
	}
	if DeleteBasisToID(pl, s.Basis) || DeleteIDToBasis(pl, 1) {
		t.Error("delete on foreign pipeline succeeded")
	}
	if ExpiredBases(pl, 0) != nil {
		t.Error("expiry on foreign pipeline returned keys")
	}
	if st := ReadStats(pl); st != (Stats{}) {
		t.Errorf("foreign pipeline stats = %+v, want zero", st)
	}
	if b2i, i2b := Tables(pl); b2i != nil || i2b != nil {
		t.Error("foreign pipeline has dictionary tables")
	}
	if _, err := Restart(pl); err == nil {
		t.Error("restart of foreign pipeline succeeded")
	}
	if err := SetBypass(pl, true); err == nil {
		t.Error("bypass on foreign pipeline succeeded")
	}
}

type nopProgram struct{}

func (nopProgram) Name() string            { return "nop" }
func (nopProgram) Tables() []*tofino.Table { return nil }
func (nopProgram) Process(ctx *tofino.Ctx, frame []byte, in tofino.Port, out []tofino.Emit) []tofino.Emit {
	return out
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := New(Config{M: 99}); err == nil {
		t.Error("bad M accepted")
	}
	if _, err := New(Config{IDBits: 30}); err == nil {
		t.Error("bad IDBits accepted")
	}
}

func TestBCHModeRoundTrips(t *testing.T) {
	// T=2 loads the future-work BCH transform into the switch: wider
	// syndrome on the wire, same end-to-end losslessness.
	_, _, enc, dec := loadPair(t, Config{T: 2})
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 100; i++ {
		payload := make([]byte, 32)
		rng.Read(payload)
		out := ProcessCloned(enc, int64(i), rawFrame(payload), 0)
		back := ProcessCloned(dec, int64(i), out[0].Frame, 0)
		_, got, _ := packet.ParseHeader(back[0].Frame)
		if !bytes.Equal(got, payload) {
			t.Fatalf("packet %d did not round trip in BCH mode", i)
		}
	}
	// Type 2 payload is one byte wider than Hamming's (16-bit
	// syndrome, 239-bit basis + pad byte): 2 + 1 + 30 = 33 bytes.
	payload := make([]byte, 32)
	rng.Read(payload)
	out := ProcessCloned(enc, 999, rawFrame(payload), 0)
	_, encPayload, _ := packet.ParseHeader(out[0].Frame)
	if len(encPayload) != 33 {
		t.Fatalf("BCH type 2 payload = %d bytes", len(encPayload))
	}
}
