package zswitch_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"zipline/internal/bitvec"
	"zipline/internal/gd"
	"zipline/internal/packet"
	"zipline/internal/tofino"
	. "zipline/internal/zswitch"
)

// Differential test of the zero-allocation dataplane against an
// independent reference model built on the generic (bit-vector)
// codec paths and plain maps — the semantics the pre-refactor
// implementation had. Randomized traffic with dictionary install /
// delete / TTL churn must yield byte-identical output frames,
// identical counters, identical digests and identical TTL expiry
// sets.

var diffMACs = struct{ a, b packet.MAC }{
	a: packet.MAC{0x02, 0, 0, 0, 0, 1},
	b: packet.MAC{0x02, 0, 0, 0, 0, 2},
}

// refModel reimplements the program's semantics the slow way.
type refModel struct {
	codec *gd.Codec
	fmt   packet.Format
	ttlNs int64

	basisToID map[string]uint32
	idToBasis map[uint32]*bitvec.Vector
	lastHit   map[string]int64

	stats   Stats
	digests [][]byte
}

func newRefModel(prog *Program) *refModel {
	return &refModel{
		codec:     prog.Codec(),
		fmt:       prog.Format(),
		ttlNs:     prog.Config().TTLNs,
		basisToID: make(map[string]uint32),
		idToBasis: make(map[uint32]*bitvec.Vector),
		lastHit:   make(map[string]int64),
	}
}

// basisKey is a basis as basis_to_id keys it: its bytes, no framing.
func basisKey(basis *bitvec.Vector) string { return string(basis.Bytes()) }

func (m *refModel) install(basis *bitvec.Vector, id uint32, now int64) {
	m.basisToID[basisKey(basis)] = id
	m.idToBasis[id] = basis.Clone()
	m.lastHit[basisKey(basis)] = now
}

func (m *refModel) deleteBasis(basis *bitvec.Vector) {
	key := basisKey(basis)
	if id, ok := m.basisToID[key]; ok {
		delete(m.basisToID, key)
		delete(m.idToBasis, id)
		delete(m.lastHit, key)
	}
}

func (m *refModel) expired(now int64) map[string]bool {
	out := make(map[string]bool)
	if m.ttlNs == 0 {
		return out
	}
	for key, at := range m.lastHit {
		if now-at >= m.ttlNs {
			out[key] = true
		}
	}
	return out
}

// encode mirrors the Figure 1 path via Codec.SplitChunk and the
// Split-based Format appenders.
func (m *refModel) encode(now int64, frame []byte) [][]byte {
	hdr, payload, err := packet.ParseHeader(frame)
	if err != nil || hdr.EtherType != packet.EtherTypeRaw || len(payload) < m.codec.ChunkBytes() {
		if err == nil && hdr.EtherType == packet.EtherTypeRaw && len(payload) < m.codec.ChunkBytes() {
			m.stats.TooShort++
			m.stats.EncPayloadIn += uint64(len(payload))
			m.stats.EncPayloadOut += uint64(len(payload))
		} else {
			m.stats.Forwarded++
		}
		return [][]byte{frame}
	}
	m.stats.EncPayloadIn += uint64(len(payload))
	chunk := payload[:m.codec.ChunkBytes()]
	tail := payload[m.codec.ChunkBytes():]
	s, err := m.codec.SplitChunk(chunk)
	if err != nil {
		m.stats.Forwarded++
		m.stats.EncPayloadOut += uint64(len(payload))
		return [][]byte{frame}
	}
	if id, hit := m.basisToID[basisKey(s.Basis)]; hit {
		m.lastHit[basisKey(s.Basis)] = now
		out := packet.AppendHeader(nil, packet.Header{
			Dst: hdr.Dst, Src: hdr.Src, EtherType: packet.EtherTypeCompressed,
		})
		out = m.fmt.AppendType3(out, packet.Compressed{
			Deviation: s.Deviation, Extra: s.Extra, ID: id,
		})
		out = append(out, tail...)
		m.stats.RawToType3++
		m.stats.EncPayloadOut += uint64(len(out) - packet.HeaderLen)
		return [][]byte{out}
	}
	m.digests = append(m.digests, append([]byte(nil), s.Basis.Bytes()...))
	m.stats.Digests++
	out := packet.AppendHeader(nil, packet.Header{
		Dst: hdr.Dst, Src: hdr.Src, EtherType: packet.EtherTypeUncompressed,
	})
	out = m.fmt.AppendType2(out, s)
	out = append(out, tail...)
	m.stats.RawToType2++
	m.stats.EncPayloadOut += uint64(len(out) - packet.HeaderLen)
	return [][]byte{out}
}

// decode mirrors the Figure 2 path via the Split-based parsers and
// Codec.MergeChunk.
func (m *refModel) decode(frame []byte) [][]byte {
	hdr, payload, err := packet.ParseHeader(frame)
	if err != nil {
		return nil
	}
	var (
		s    gd.Split
		tail []byte
		cnt  *uint64
	)
	switch hdr.Type() {
	case packet.TypeUncompressed:
		s, tail, err = m.fmt.ParseType2(payload)
		if err != nil {
			return nil
		}
		cnt = &m.stats.Type2ToRaw
	case packet.TypeCompressed:
		var c packet.Compressed
		c, tail, err = m.fmt.ParseType3(payload)
		if err != nil {
			return nil
		}
		basis, hit := m.idToBasis[c.ID]
		if !hit {
			m.stats.DecodeMiss++
			return nil
		}
		s = gd.Split{Basis: basis, Deviation: c.Deviation, Extra: c.Extra}
		cnt = &m.stats.Type3ToRaw
	default:
		m.stats.Forwarded++
		return [][]byte{frame}
	}
	out := packet.AppendHeader(nil, packet.Header{
		Dst: hdr.Dst, Src: hdr.Src, EtherType: packet.EtherTypeRaw,
	})
	out, err = m.codec.MergeChunk(s, out)
	if err != nil {
		return nil
	}
	out = append(out, tail...)
	*cnt++
	return [][]byte{out}
}

// TestDifferentialDataplane drives the real encoder and decoder
// pipelines and the reference model with the same randomized traffic
// and dictionary churn, comparing every emission.
func TestDifferentialDataplane(t *testing.T) {
	for _, cfg := range []Config{
		{TTLNs: 5_000},
		{Packed: true, TTLNs: 5_000},
		{M: 6, IDBits: 7, TTLNs: 5_000},
	} {
		t.Run(fmt.Sprintf("m%d-packed%v", cfg.M, cfg.Packed), func(t *testing.T) {
			encProg, _, enc, dec := loadPairD(t, cfg)
			ref := newRefModel(encProg)
			codec := encProg.Codec()
			rng := rand.New(rand.NewSource(1234))
			nextID := uint32(0)
			maxID := uint32(1) << uint(encProg.Config().IDBits)

			// A pool of recurring payloads so dictionary hits happen.
			pool := make([][]byte, 24)
			for i := range pool {
				p := make([]byte, codec.ChunkBytes()+rng.Intn(12))
				rng.Read(p)
				pool[i] = p
			}
			var learned []*bitvec.Vector

			for step := 0; step < 4_000; step++ {
				now := int64(step) * 10

				// Dictionary churn.
				switch r := rng.Float64(); {
				case r < 0.02 && nextID < maxID:
					// Learn the basis of a random pool payload.
					p := pool[rng.Intn(len(pool))]
					s, err := codec.SplitChunk(p[:codec.ChunkBytes()])
					if err != nil {
						t.Fatal(err)
					}
					if _, dup := ref.basisToID[basisKey(s.Basis)]; !dup {
						if err := InstallIDToBasis(dec, nextID, s.Basis, now); err != nil {
							t.Fatal(err)
						}
						if err := InstallBasisToID(enc, s.Basis, nextID, now); err != nil {
							t.Fatal(err)
						}
						ref.install(s.Basis, nextID, now)
						learned = append(learned, s.Basis)
						nextID++
					}
				case r < 0.03 && len(learned) > 0:
					// Delete a random learned mapping (both tiers).
					i := rng.Intn(len(learned))
					basis := learned[i]
					if id, ok := ref.basisToID[basisKey(basis)]; ok {
						DeleteBasisToID(enc, basis)
						DeleteIDToBasis(dec, id)
						ref.deleteBasis(basis)
					}
					learned = append(learned[:i], learned[i+1:]...)
				}

				// TTL expiry comparison and synchronized eviction.
				if step%250 == 249 {
					gotExp := ExpiredBases(enc, now)
					wantExp := ref.expired(now)
					if len(gotExp) != len(wantExp) {
						t.Fatalf("step %d: expired %d keys, reference %d", step, len(gotExp), len(wantExp))
					}
					for _, key := range gotExp {
						if !wantExp[key] {
							t.Fatalf("step %d: key expired in dataplane but not reference", step)
						}
						basis := bitvec.FromBytes([]byte(key), codec.BasisBits())
						if id, ok := ref.basisToID[key]; ok {
							DeleteBasisToID(enc, basis)
							DeleteIDToBasis(dec, id)
							ref.deleteBasis(basis)
							for i, b := range learned {
								if basisKey(b) == key {
									learned = append(learned[:i], learned[i+1:]...)
									break
								}
							}
						}
					}
				}

				// Traffic: mostly pool payloads, some fresh random, some
				// malformed.
				var frame []byte
				switch r := rng.Float64(); {
				case r < 0.70:
					frame = rawFrameD(pool[rng.Intn(len(pool))])
				case r < 0.85:
					p := make([]byte, codec.ChunkBytes()+rng.Intn(8))
					rng.Read(p)
					frame = rawFrameD(p)
				case r < 0.90:
					frame = rawFrameD(make([]byte, rng.Intn(codec.ChunkBytes()))) // too short
				case r < 0.95:
					frame = packet.Frame(packet.Header{
						Dst: diffMACs.b, Src: diffMACs.a, EtherType: 0x0800,
					}, make([]byte, 40)) // foreign ethertype
				default:
					// Bogus type 3 with a random (likely unmapped) ID.
					hdrOut := packet.AppendHeader(nil, packet.Header{
						Dst: diffMACs.b, Src: diffMACs.a, EtherType: packet.EtherTypeCompressed,
					})
					frame = encProg.Format().AppendType3(hdrOut, packet.Compressed{
						Deviation: rng.Uint32() & 0x1F,
						ID:        rng.Uint32() % maxID,
					})
				}

				// Through the encoder, then everything emitted through
				// the decoder; compare at both hops.
				gotEnc := ProcessCloned(enc, now, frame, 0)
				wantEnc := ref.encode(now, frame)
				compareEmits(t, step, "encode", gotEnc, wantEnc)
				for i, e := range gotEnc {
					gotDec := ProcessCloned(dec, now, e.Frame, 0)
					wantDec := ref.decode(wantEnc[i])
					compareEmits(t, step, "decode", gotDec, wantDec)
				}
			}

			// Counters must agree exactly (encoder + decoder vs model).
			got := ReadStats(enc)
			got.Add(ReadStats(dec))
			if got != ref.stats {
				t.Errorf("stats = %+v\nreference %+v", got, ref.stats)
			}

			// Digests must agree in order and content.
			ds := enc.DrainDigests()
			if len(ds) != len(ref.digests) {
				t.Fatalf("%d digests, reference %d", len(ds), len(ref.digests))
			}
			for i, d := range ds {
				if !bytes.Equal(d.Data, ref.digests[i]) {
					t.Fatalf("digest %d diverged", i)
				}
			}
		})
	}
}

func compareEmits(t *testing.T, step int, stage string, got []tofino.Emit, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d %s: %d emissions, reference %d", step, stage, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Frame, want[i]) {
			t.Fatalf("step %d %s: frame %d diverged\n got  %x\n want %x",
				step, stage, i, got[i].Frame, want[i])
		}
	}
}

func loadPairD(t *testing.T, cfg Config) (encProg, decProg *Program, enc, dec *tofino.Pipeline) {
	t.Helper()
	encCfg := cfg
	encCfg.Roles = map[tofino.Port]Role{0: RoleEncode}
	encCfg.PortMap = map[tofino.Port]tofino.Port{0: 1}
	decCfg := cfg
	decCfg.Roles = map[tofino.Port]Role{0: RoleDecode}
	decCfg.PortMap = map[tofino.Port]tofino.Port{0: 1}
	var err error
	if encProg, err = New(encCfg); err != nil {
		t.Fatal(err)
	}
	if decProg, err = New(decCfg); err != nil {
		t.Fatal(err)
	}
	if enc, err = tofino.Load(tofino.Config{Name: "enc"}, encProg); err != nil {
		t.Fatal(err)
	}
	if dec, err = tofino.Load(tofino.Config{Name: "dec"}, decProg); err != nil {
		t.Fatal(err)
	}
	return
}

func rawFrameD(payload []byte) []byte {
	return packet.Frame(packet.Header{
		Dst: diffMACs.b, Src: diffMACs.a, EtherType: packet.EtherTypeRaw,
	}, payload)
}
