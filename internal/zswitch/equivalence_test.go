package zswitch

import (
	"bytes"
	"math/rand"
	"testing"

	"zipline/internal/gd"
	"zipline/internal/packet"
	"zipline/internal/tofino"
)

// End-to-end dataplane/library equivalence: a chunk transformed by
// the switch program's Encode role must decode identically through
// the library codec (internal/gd), and a packet assembled with the
// library codec must decode identically through the Decode role. The
// switch and the software stack share one codec by construction;
// these tests pin the property at the wire-format boundary where the
// two implementations could drift.

// processOne pushes a frame through a pipeline's port 0 and returns
// the single emitted frame.
func processOne(t *testing.T, pl *tofino.Pipeline, frame []byte) []byte {
	t.Helper()
	emits := ProcessCloned(pl, 0, frame, 0)
	if len(emits) != 1 {
		t.Fatalf("%d emissions, want 1", len(emits))
	}
	return emits[0].Frame
}

// TestEncodeRoleDecodesViaLibrary: switch-encoded type 2 and type 3
// payloads must reconstruct through gd.Codec.MergeChunk alone.
func TestEncodeRoleDecodesViaLibrary(t *testing.T) {
	for _, cfg := range []Config{{}, {M: 6, IDBits: 7}, {M: 8, T: 2}} {
		encProg, _, enc, _ := loadPair(t, cfg)
		codec := encProg.Codec()
		format := encProg.Format()
		rng := rand.New(rand.NewSource(77))

		for trial := 0; trial < 50; trial++ {
			chunk := make([]byte, codec.ChunkBytes())
			rng.Read(chunk)
			tail := make([]byte, rng.Intn(16))
			rng.Read(tail)

			// Unknown basis: the encoder emits type 2.
			out := processOne(t, enc, rawFrame(append(append([]byte(nil), chunk...), tail...)))
			hdr, payload, err := packet.ParseHeader(out)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Type() != packet.TypeUncompressed {
				t.Fatalf("trial %d: type %v, want type 2", trial, hdr.Type())
			}
			s, gotTail, err := format.ParseType2(payload)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := codec.MergeChunk(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged, chunk) || !bytes.Equal(gotTail, tail) {
				t.Fatalf("trial %d: library decode of switch type 2 diverged", trial)
			}

			// Known basis: install the mapping, re-send, expect type 3.
			id := uint32(trial)
			if err := InstallBasisToID(enc, s.Basis, id, 0); err != nil {
				t.Fatal(err)
			}
			out = processOne(t, enc, rawFrame(append(append([]byte(nil), chunk...), tail...)))
			hdr, payload, err = packet.ParseHeader(out)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Type() != packet.TypeCompressed {
				t.Fatalf("trial %d: type %v after install, want type 3", trial, hdr.Type())
			}
			c, gotTail, err := format.ParseType3(payload)
			if err != nil {
				t.Fatal(err)
			}
			if c.ID != id {
				t.Fatalf("trial %d: identifier %d, want %d", trial, c.ID, id)
			}
			merged, err = codec.MergeChunk(gd.Split{
				Basis: s.Basis, Deviation: c.Deviation, Extra: c.Extra,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged, chunk) || !bytes.Equal(gotTail, tail) {
				t.Fatalf("trial %d: library decode of switch type 3 diverged", trial)
			}
		}
	}
}

// TestLibraryEncodesDecodeRole: frames assembled from gd.Codec splits
// with packet.Format must reconstruct through the switch Decode role.
func TestLibraryEncodesDecodeRole(t *testing.T) {
	for _, cfg := range []Config{{}, {M: 6, IDBits: 7}, {M: 8, T: 2}} {
		prog, err := New(Config{
			M: cfg.M, IDBits: cfg.IDBits, T: cfg.T,
			Roles:   map[tofino.Port]Role{0: RoleDecode},
			PortMap: map[tofino.Port]tofino.Port{0: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := tofino.Load(tofino.Config{Name: "dec-lib"}, prog)
		if err != nil {
			t.Fatal(err)
		}
		codec := prog.Codec()
		format := prog.Format()
		rng := rand.New(rand.NewSource(78))

		for trial := 0; trial < 50; trial++ {
			chunk := make([]byte, codec.ChunkBytes())
			rng.Read(chunk)
			tail := make([]byte, rng.Intn(16))
			rng.Read(tail)
			s, err := codec.SplitChunk(chunk)
			if err != nil {
				t.Fatal(err)
			}

			// Library-built type 2 through the switch decoder.
			p := packet.AppendHeader(nil, packet.Header{
				Dst: testMACs.b, Src: testMACs.a, EtherType: packet.EtherTypeUncompressed,
			})
			p = format.AppendType2(p, s)
			p = append(p, tail...)
			out := processOne(t, pl, p)
			hdr, payload, err := packet.ParseHeader(out)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.EtherType != packet.EtherTypeRaw {
				t.Fatalf("trial %d: decoded EtherType %#x", trial, hdr.EtherType)
			}
			if !bytes.Equal(payload, append(append([]byte(nil), chunk...), tail...)) {
				t.Fatalf("trial %d: switch decode of library type 2 diverged", trial)
			}

			// Library-built type 3, after installing the dictionary
			// entry the decoder needs.
			id := uint32(trial)
			if err := InstallIDToBasis(pl, id, s.Basis, 0); err != nil {
				t.Fatal(err)
			}
			p = packet.AppendHeader(nil, packet.Header{
				Dst: testMACs.b, Src: testMACs.a, EtherType: packet.EtherTypeCompressed,
			})
			p = format.AppendType3(p, packet.Compressed{
				Deviation: s.Deviation, Extra: s.Extra, ID: id,
			})
			p = append(p, tail...)
			out = processOne(t, pl, p)
			hdr, payload, err = packet.ParseHeader(out)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.EtherType != packet.EtherTypeRaw {
				t.Fatalf("trial %d: decoded EtherType %#x", trial, hdr.EtherType)
			}
			if !bytes.Equal(payload, append(append([]byte(nil), chunk...), tail...)) {
				t.Fatalf("trial %d: switch decode of library type 3 diverged", trial)
			}
		}
	}
}
