package main

import (
	"bytes"
	"fmt"
	"time"

	"zipline/internal/bitvec"
	"zipline/internal/packet"
	"zipline/internal/tofino"
	"zipline/internal/trace"
	"zipline/internal/zswitch"
)

const (
	frameBytes = packet.HeaderLen + chunkBytes // the smallest frame: header + one chunk
	// batchFrames is one op of the ladder and the control plane's
	// period: digests are drained and mappings installed between
	// batches.
	batchFrames = 256
	mtuTail     = 1454 // pads a frame to 1500 B
)

var (
	rungSwitch  = &rung{"encoder+decoder+control plane", "zswitch", ""}
	rungEncPipe = &rung{"tofino.Pipeline.ProcessAppend(encode)", "zswitch", rungSwitch.name}
	rungDecPipe = &rung{"tofino.Pipeline.ProcessAppend(decode)", "zswitch", rungSwitch.name}
	rungInstall = &rung{"zswitch.InstallIDToBasis+InstallBasisToID", "zswitch", rungSwitch.name}
	rungForward = &rung{"tofino.Pipeline.ProcessAppend(forward)", "tofino", rungEncPipe.name}
	rungType3   = &rung{"packet.Format.AppendType3+ParseType3", "packet", rungForward.name}
	rungType2   = &rung{"packet.Format.AppendType2Bytes+ParseType2Bytes", "packet", rungForward.name}
	rungSplitB  = &rung{"gd.Codec.SplitChunkBytes", "gd", rungType3.name}
	rungMTU     = &rung{"tofino.Pipeline.ProcessAppend(encode, 1500 B)", "zswitch", ""}
)

type switchRunner struct {
	frames []byte // frameBytes each
	n      int

	wire    []byte
	wireOff [batchFrames + 1]int
	emits   []tofino.Emit

	// The last traced pass's pipelines (warm tables), times and counters.
	enc, dec             *tofino.Pipeline
	tEnc, tDec, tInstall time.Duration
	installs             int
	stats                zswitch.Stats
}

func setupSwitchLine(seed int64, quick bool) (runner, error) {
	n := 1 << 20
	if quick {
		n = 1 << 14
	}
	dns := trace.DNS(trace.DNSConfig{Queries: n, Seed: seed})
	if dns.RecordSize != chunkBytes {
		return nil, fmt.Errorf("switch-line: DNS records are %d bytes, want %d", dns.RecordSize, chunkBytes)
	}
	payload := dns.Bytes()
	hdr := packet.Header{Dst: packet.MAC{2, 0, 0, 0, 0, 2}, Src: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeRaw}
	frames := make([]byte, 0, n*frameBytes)
	for i := 0; i < n; i++ {
		frames = packet.AppendHeader(frames, hdr)
		frames = append(frames, payload[i*chunkBytes:(i+1)*chunkBytes]...)
	}
	return &switchRunner{
		frames: frames, n: n,
		wire:  make([]byte, 0, batchFrames*(frameBytes+8)),
		emits: make([]tofino.Emit, 0, 4),
	}, nil
}

func (r *switchRunner) inputHash() uint64 { return hashBytes(r.frames) }
func (r *switchRunner) close()            {}

func (r *switchRunner) frame(i int) []byte { return r.frames[i*frameBytes : (i+1)*frameBytes] }

func newPipeline(role zswitch.Role) (*zswitch.Program, *tofino.Pipeline, error) {
	prog, err := zswitch.New(zswitch.Config{
		Roles:   map[tofino.Port]zswitch.Role{0: role},
		PortMap: map[tofino.Port]tofino.Port{0: 1},
	})
	if err != nil {
		return nil, nil, err
	}
	pl, err := tofino.Load(tofino.Config{Name: "bench-" + role.String()}, prog)
	return prog, pl, err
}

// pass sends every frame through a cold encoder and decoder, a batch
// at a time: the encoder's output is copied onto the "wire", the
// decoder restores it, and the bench plays an instant control plane
// between batches (decoder first, as the paper's protocol requires).
func (r *switchRunner) pass(tr *tracer) (passResult, error) {
	encProg, enc, err := newPipeline(zswitch.RoleEncode)
	if err != nil {
		return passResult{}, err
	}
	_, dec, err := newPipeline(zswitch.RoleDecode)
	if err != nil {
		return passResult{}, err
	}
	basisBits := encProg.Codec().BasisBits()
	known := make(map[string]struct{})
	nextID := uint32(0)
	var tEnc, tDec, tInstall time.Duration
	failed, installs := 0, 0
	now := int64(0)
	for base := 0; base < r.n; base += batchFrames {
		cnt := min(batchFrames, r.n-base)
		op := base / batchFrames
		s := time.Now()
		r.wire = r.wire[:0]
		for i := 0; i < cnt; i++ {
			now++
			r.emits = enc.ProcessAppend(now, r.frame(base+i), 0, r.emits[:0])
			r.wireOff[i] = len(r.wire)
			if len(r.emits) == 1 {
				r.wire = append(r.wire, r.emits[0].Frame...)
			}
		}
		r.wireOff[cnt] = len(r.wire)
		tEnc += time.Since(s)
		tr.end(rungEncPipe, op, s)

		s = time.Now()
		for i := 0; i < cnt; i++ {
			now++
			r.emits = dec.ProcessAppend(now, r.wire[r.wireOff[i]:r.wireOff[i+1]], 0, r.emits[:0])
			if len(r.emits) != 1 || !bytes.Equal(r.emits[0].Frame, r.frame(base+i)) {
				failed++
			}
		}
		tDec += time.Since(s)
		tr.end(rungDecPipe, op, s)

		s = time.Now()
		for _, d := range enc.DrainDigests() {
			if _, ok := known[string(d.Data)]; ok {
				continue // reported again before its mapping went live
			}
			known[string(d.Data)] = struct{}{}
			basis := bitvec.FromBytes(d.Data, basisBits)
			if err := zswitch.InstallIDToBasis(dec, nextID, basis, now); err != nil {
				return passResult{}, err
			}
			if err := zswitch.InstallBasisToID(enc, basis, nextID, now); err != nil {
				return passResult{}, err
			}
			nextID++
			installs++
		}
		tInstall += time.Since(s)
		tr.end(rungInstall, op, s)
	}
	st := zswitch.ReadStats(enc)
	if tr != nil {
		r.enc, r.dec, r.stats = enc, dec, st
		r.tEnc, r.tDec, r.tInstall, r.installs = tEnc, tDec, tInstall, installs
	}
	total := tEnc + tDec + tInstall
	return passResult{
		attempted: r.n, failed: failed,
		opsPerS:   float64(r.n) / total.Seconds(),
		encodeMBs: mbPerS(len(r.frames), tEnc),
		decodeMBs: mbPerS(len(r.frames), tDec),
		wireRatio: float64(st.EncPayloadOut) / float64(st.EncPayloadIn),
		top:       total,
	}, nil
}

// batches runs op over every frame, one span per batch.
func (r *switchRunner) batches(tr *tracer, rg *rung, n int, op func(i int)) time.Duration {
	return timeOps(tr, rg, (n+batchFrames-1)/batchFrames, func(b int) {
		for i := b * batchFrames; i < min((b+1)*batchFrames, n); i++ {
			op(i)
		}
	})
}

func (r *switchRunner) ladder(tr *tracer, layer samples) error {
	prog := r.enc.Program().(*zswitch.Program)
	codec, format := prog.Codec(), prog.Format()
	chunk := func(i int) []byte { return r.frame(i)[packet.HeaderLen:] }

	var basis []byte
	var dev uint32
	var extra uint8
	var err error
	tSplit := r.batches(tr, rungSplitB, r.n, func(i int) {
		basis, dev, extra, err = codec.SplitChunkBytes(chunk(i), basis)
	})
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 64)
	tType3 := r.batches(tr, rungType3, r.n, func(i int) {
		buf = format.AppendType3(buf[:0], packet.Compressed{Deviation: dev, Extra: extra, ID: uint32(i) & (1<<idBits - 1)})
		c, _, e := format.ParseType3(buf)
		if e != nil {
			err = e
		}
		sink ^= c.ID
	})
	var scratch []byte
	tType2 := r.batches(tr, rungType2, r.n, func(i int) {
		buf = format.AppendType2Bytes(buf[:0], basis, dev, extra)
		b, d, _, _, e := format.ParseType2Bytes(buf, scratch)
		if e != nil {
			err = e
		}
		scratch = b
		sink ^= d
	})
	if err != nil {
		return err
	}

	_, fwd, err := newPipeline(zswitch.RoleForward)
	if err != nil {
		return err
	}
	now := int64(0)
	tForward := r.batches(tr, rungForward, r.n, func(i int) {
		now++
		r.emits = fwd.ProcessAppend(now, r.frame(i), 0, r.emits[:0])
	})

	// Steady state on the last pass's warm tables: every frame takes
	// the type-3 path and nothing may allocate.
	steady := min(r.n, 1<<16)
	m0 := mallocs()
	for i := 0; i < steady; i++ {
		now++
		r.emits = r.enc.ProcessAppend(now, r.frame(i), 0, r.emits[:0])
		r.wire = append(r.wire[:0], r.emits[0].Frame...)
		r.emits = r.dec.ProcessAppend(now, r.wire, 0, r.emits[:0])
	}
	allocs := mallocs() - m0
	if len(r.emits) != 1 || !bytes.Equal(r.emits[0].Frame, r.frame(steady-1)) {
		return fmt.Errorf("ladder: the warm pipelines did not restore a frame")
	}
	mtu := make([]byte, frameBytes+mtuTail)
	tMTU := r.batches(tr, rungMTU, steady, func(i int) {
		now++
		copy(mtu, r.frame(i))
		r.emits = r.enc.ProcessAppend(now, mtu, 0, r.emits[:0])
	})

	layer.add("gd.split_bytes_ns_per_chunk", perOp(tSplit, r.n))
	layer.add("packet.type3_ns_per_pkt", perOp(tType3, r.n))
	layer.add("packet.type2_ns_per_pkt", perOp(tType2, r.n))
	layer.add("tofino.forward_ns_per_pkt", perOp(tForward, r.n))
	layer.add("zswitch.encode_ns_per_pkt", perOp(r.tEnc, r.n))
	layer.add("zswitch.decode_ns_per_pkt", perOp(r.tDec, r.n))
	layer.add("zswitch.install_ns", perOp(r.tInstall, max(r.installs, 1)))
	layer.add("zswitch.allocs_per_pkt", float64(allocs)/float64(steady))
	layer.add("zswitch.mtu_encode_ns_per_pkt", perOp(tMTU, steady))
	layer.add("zswitch.type3_share", float64(r.stats.RawToType3)/float64(r.n))
	layer.add("zswitch.digests", float64(r.stats.Digests))
	return nil
}

// layers has nothing to derive: every switch-line metric is a whole
// rung or a count.
func (r *switchRunner) layers(map[string]float64) map[string]float64 { return nil }
