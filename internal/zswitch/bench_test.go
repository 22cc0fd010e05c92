package zswitch_test

import (
	"math/rand"
	"testing"

	"zipline/internal/packet"
	"zipline/internal/tofino"
	. "zipline/internal/zswitch"
)

// Dataplane hot-path benchmarks: packets per second through
// Program.Process for each role, steady state (dictionary warm, no
// digests). These are the numbers the tentpole optimises; the
// matching alloc-regression tests in alloc_test.go pin them at
// 0 allocs/op.

// benchPipeline loads a pipeline with one port in the given role.
func benchPipeline(b *testing.B, role Role) (*Program, *tofino.Pipeline) {
	b.Helper()
	prog, err := New(Config{
		Roles:   map[tofino.Port]Role{0: role},
		PortMap: map[tofino.Port]tofino.Port{0: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := tofino.Load(tofino.Config{Name: "bench"}, prog)
	if err != nil {
		b.Fatal(err)
	}
	return prog, pl
}

func benchRawFrame(prog *Program, seed int64) []byte {
	payload := make([]byte, prog.Codec().ChunkBytes())
	rand.New(rand.NewSource(seed)).Read(payload)
	return packet.Frame(packet.Header{
		Dst:       packet.MAC{2, 0, 0, 0, 0, 2},
		Src:       packet.MAC{2, 0, 0, 0, 0, 1},
		EtherType: packet.EtherTypeRaw,
	}, payload)
}

// BenchmarkSwitchEncode measures the steady-state encode path: the
// basis is installed, so every packet takes the type-3 branch
// (syndrome + dictionary hit + compressed frame build).
func BenchmarkSwitchEncode(b *testing.B) {
	prog, pl := benchPipeline(b, RoleEncode)
	frame := benchRawFrame(prog, 1)
	// Warm the dictionary so the hot loop is pure type-3.
	emits := ProcessCloned(pl, 0, frame, 0)
	if len(emits) != 1 {
		b.Fatal("warmup emit count")
	}
	pl.DrainDigests()
	_, payload, err := packet.ParseHeader(frame)
	if err != nil {
		b.Fatal(err)
	}
	s, err := prog.Codec().SplitChunk(payload[:prog.Codec().ChunkBytes()])
	if err != nil {
		b.Fatal(err)
	}
	if err := InstallBasisToID(pl, s.Basis, 42, 0); err != nil {
		b.Fatal(err)
	}

	var scratch []tofino.Emit
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = pl.ProcessAppend(int64(i), frame, 0, scratch[:0])
		if len(scratch) != 1 {
			b.Fatal("emit count")
		}
	}
	reportPktsPerSec(b)
}

// BenchmarkSwitchEncodeMiss measures the encode path with an empty
// dictionary: every packet misses, so each one digests its basis to
// the control plane and leaves as type 2. The queue is drained every
// 1 000 packets, and the pipeline reuses its queue and digest arena
// after each drain, so the path allocates nothing
// (TestEncodeMissZeroAllocs pins it).
func BenchmarkSwitchEncodeMiss(b *testing.B) {
	prog, pl := benchPipeline(b, RoleEncode)
	frame := benchRawFrame(prog, 1)

	var scratch []tofino.Emit
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = pl.ProcessAppend(int64(i), frame, 0, scratch[:0])
		if len(scratch) != 1 {
			b.Fatal("emit count")
		}
		if pl.PendingDigests() >= 1000 {
			pl.DrainDigests()
		}
	}
	reportPktsPerSec(b)
}

// BenchmarkSwitchDecode measures the steady-state decode path: a
// type-3 frame whose identifier is installed in the decoder table.
func BenchmarkSwitchDecode(b *testing.B) {
	encProg, encPl := benchPipeline(b, RoleEncode)
	raw := benchRawFrame(encProg, 2)
	_, payload, _ := packet.ParseHeader(raw)
	s, err := encProg.Codec().SplitChunk(payload[:encProg.Codec().ChunkBytes()])
	if err != nil {
		b.Fatal(err)
	}
	if err := InstallBasisToID(encPl, s.Basis, 7, 0); err != nil {
		b.Fatal(err)
	}
	emits := ProcessCloned(encPl, 0, raw, 0)
	if len(emits) != 1 {
		b.Fatal("encode emit count")
	}
	frame := append([]byte(nil), emits[0].Frame...)

	_, decPl := benchPipeline(b, RoleDecode)
	if err := InstallIDToBasis(decPl, 7, s.Basis, 0); err != nil {
		b.Fatal(err)
	}

	var scratch []tofino.Emit
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = decPl.ProcessAppend(int64(i), frame, 0, scratch[:0])
		if len(scratch) != 1 {
			b.Fatal("emit count")
		}
	}
	reportPktsPerSec(b)
}

// BenchmarkSwitchForward measures the no-op baseline: plain port
// forwarding of a raw frame.
func BenchmarkSwitchForward(b *testing.B) {
	prog, pl := benchPipeline(b, RoleForward)
	frame := benchRawFrame(prog, 3)

	var scratch []tofino.Emit
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = pl.ProcessAppend(int64(i), frame, 0, scratch[:0])
		if len(scratch) != 1 {
			b.Fatal("emit count")
		}
	}
	reportPktsPerSec(b)
}

func reportPktsPerSec(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}
