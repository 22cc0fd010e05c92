package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"zipline"
	"zipline/internal/bitvec"
	"zipline/internal/crc"
	"zipline/internal/gd"
	"zipline/internal/trace"
)

const (
	segBytes   = 64 << 10 // one op: a 64 KiB Write or Read
	chunkBytes = 32       // default Config: m = 8
	idBits     = 15
)

// Ladder rungs of the stream workloads, top to bottom.
var (
	rungWrite  = &rung{"zipline.Writer.Write", "zipline", ""}
	rungPack   = &rung{"bitvec.Writer", "bitvec", rungWrite.name}
	rungDict   = &rung{"gd.Dictionary.Lookup+Insert", "gd", rungPack.name}
	rungSplit  = &rung{"gd.Codec.SplitChunkInto", "gd", rungDict.name}
	rungCRC    = &rung{"crc.Engine.Remainder", "crc", rungSplit.name}
	rungRead   = &rung{"zipline.Reader.Read", "zipline", ""}
	rungMerge  = &rung{"gd.Codec.MergeChunk", "gd", rungRead.name}
	rungDictD  = &rung{"gd.Dictionary.LookupIDTouch+Insert", "gd", rungMerge.name}
	rungUnpack = &rung{"bitvec.Reader", "bitvec", rungDictD.name}
	rungEncAll = &rung{"zipline.Writer.EncodeAll", "zipline", ""}
	rungDecAll = &rung{"zipline.Reader.DecodeAll", "zipline", ""}
	rungParEnc = &rung{"zipline.ParallelWriter", "parallel", ""}
	rungParDec = &rung{"zipline.ParallelReader", "parallel", ""}
)

// hammingCodec is the default Config's chunk codec (m = 8).
func hammingCodec() (*gd.Codec, *crc.Engine, error) {
	tr, err := gd.NewHammingM(8)
	if err != nil {
		return nil, nil, err
	}
	return gd.NewCodec(tr), tr.Code().Engine(), nil
}

// sensorInput is the paper's synthetic dataset with the Fig. 3 noise
// model: readings snapped to the GD grid, a single-bit glitch on 60 %
// of records.
func sensorInput(seed int64, size int) ([]byte, error) {
	codec, _, err := hammingCodec()
	if err != nil {
		return nil, err
	}
	return trace.Sensor(trace.SensorConfig{
		Records: size / chunkBytes, SnapCodec: codec, GlitchProb: 0.6, Seed: seed,
	}).Bytes(), nil
}

// noiseInput is uniformly random bytes: a working set far beyond the
// 32 768-entry dictionary.
func noiseInput(seed int64, size int) ([]byte, error) {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b, nil
}

type streamRunner struct {
	plain  []byte
	comp   bytes.Buffer // the container, reused between passes so its growth is timed once at most
	out    []byte
	sensor bool

	codec *gd.Codec
	eng   *crc.Engine
	dict  *zipline.Dict // trained on first use by the side rungs

	// Kept from the last traced pass for the ladder.
	topEnc, topDec       time.Duration
	encAllocs, decAllocs uint64

	// The pack rung's records, one block per segment: what the decode
	// rungs unpack.
	packed  []byte
	blocks  []packedBlock
	sideBuf []byte
}

type packedBlock struct{ off, bits int }

// setupStream generates size bytes with input; sensor adds the side
// rungs that need dictionary-covered data.
func setupStream(input func(seed int64, size int) ([]byte, error), size int, sensor bool) func(int64, bool) (runner, error) {
	return func(seed int64, quick bool) (runner, error) {
		if quick {
			size = 1 << 20
		}
		plain, err := input(seed, size)
		if err != nil {
			return nil, err
		}
		codec, eng, err := hammingCodec()
		if err != nil {
			return nil, err
		}
		r := &streamRunner{plain: plain, out: make([]byte, size), sensor: sensor, codec: codec, eng: eng}
		r.comp.Grow(size + size/16)
		return r, nil
	}
}

func (r *streamRunner) inputHash() uint64 { return hashBytes(r.plain) }
func (r *streamRunner) close()            {}

func (r *streamRunner) seg(b []byte, i int) []byte { return b[i*segBytes : (i+1)*segBytes] }

func (r *streamRunner) pass(tr *tracer) (passResult, error) {
	segs := len(r.plain) / segBytes
	r.comp.Reset()
	zw, err := zipline.NewWriter(&r.comp)
	if err != nil {
		return passResult{}, err
	}
	var m0 uint64
	if tr != nil {
		m0 = mallocs()
	}
	enc, err := writeSegments(tr, rungWrite, zw, r.plain)
	if err != nil {
		return passResult{}, err
	}
	if tr != nil {
		m1 := mallocs()
		r.encAllocs, m0 = m1-m0, m1
	}

	clear(r.out)
	zr, err := zipline.NewReader(bytes.NewReader(r.comp.Bytes()))
	if err != nil {
		return passResult{}, err
	}
	// A decode error leaves the rest of out cleared, so those segments
	// fail verification below.
	var rerr error
	dec := timeOps(tr, rungRead, segs, func(i int) {
		if rerr == nil {
			_, rerr = io.ReadFull(zr, r.seg(r.out, i))
		}
	})
	if tr != nil {
		r.decAllocs = mallocs() - m0
		r.topEnc, r.topDec = enc, dec
	}
	failed := 0
	for i := 0; i < segs; i++ {
		if !bytes.Equal(r.seg(r.out, i), r.seg(r.plain, i)) {
			failed++
		}
	}
	if n, err := zr.Read(make([]byte, 1)); failed == 0 && (n != 0 || err != io.EOF) {
		failed++ // the stream must end where the plaintext does
	}
	return passResult{
		attempted: segs, failed: failed,
		opsPerS:   float64(segs) / (enc + dec).Seconds(),
		encodeMBs: mbPerS(len(r.plain), enc),
		decodeMBs: mbPerS(len(r.plain), dec),
		wireRatio: float64(r.comp.Len()) / float64(len(r.plain)),
		top:       enc + dec,
	}, nil
}

// writeSegments writes plain to zw in segBytes Writes, one span each,
// and closes it; it returns the time from the first Write to Close.
func writeSegments(tr *tracer, rg *rung, zw *zipline.Writer, plain []byte) (time.Duration, error) {
	var err error
	d := timeOps(tr, rg, len(plain)/segBytes, func(i int) {
		if _, e := zw.Write(plain[i*segBytes : (i+1)*segBytes]); e != nil && err == nil {
			err = e
		}
	})
	t0 := time.Now()
	if e := zw.Close(); e != nil && err == nil {
		err = e
	}
	return d + time.Since(t0), err
}

// timeOps runs op(i) for i in [0, n), one span each, and returns the
// loop's wall time.
func timeOps(tr *tracer, r *rung, n int, op func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := tr.begin()
		op(i)
		tr.end(r, i, s)
	}
	return time.Since(t0)
}

var sink uint32 // keeps rung results alive

func (r *streamRunner) ladder(tr *tracer, layer samples) error {
	segs := len(r.plain) / segBytes
	chunks := len(r.plain) / chunkBytes
	perSeg := segBytes / chunkBytes
	chunk := func(seg, i int) []byte {
		off := seg*segBytes + i*chunkBytes
		return r.plain[off : off+chunkBytes]
	}
	m, k := r.codec.DeviationBits(), r.codec.BasisBits()

	// Encode rungs, bottom up; each repeats the one below and adds a layer.
	tCRC := timeOps(tr, rungCRC, segs, func(s int) {
		for i := 0; i < perSeg; i++ {
			sink ^= r.eng.Remainder(chunk(s, i), r.codec.ChunkBits())
		}
	})
	var split gd.Split
	var err error
	tSplit := timeOps(tr, rungSplit, segs, func(s int) {
		for i := 0; i < perSeg; i++ {
			if e := r.codec.SplitChunkInto(chunk(s, i), &split); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	var hits, misses, evictions int
	dict := gd.NewDictionary(idBits)
	tDict := timeOps(tr, rungDict, segs, func(s int) {
		for i := 0; i < perSeg; i++ {
			_ = r.codec.SplitChunkInto(chunk(s, i), &split)
			if _, ok := dict.Lookup(split.Basis); ok {
				hits++
			} else {
				misses++
				if _, ev := dict.Insert(split.Basis); ev != nil {
					evictions++
				}
			}
		}
	})
	dict = gd.NewDictionary(idBits)
	bw := bitvec.NewWriter(segBytes + segBytes/16)
	r.packed, r.blocks = r.packed[:0], r.blocks[:0]
	tPack := timeOps(tr, rungPack, segs, func(s int) {
		bw.Reset()
		for i := 0; i < perSeg; i++ {
			_ = r.codec.SplitChunkInto(chunk(s, i), &split)
			id, ok := dict.Lookup(split.Basis)
			bw.WriteBit(ok)
			bw.WriteUint(uint64(split.Deviation), m)
			bw.WriteUint(uint64(split.Extra), 1)
			if ok {
				bw.WriteUint(uint64(id), idBits)
			} else {
				dict.Insert(split.Basis)
				bw.WriteVector(split.Basis)
			}
		}
		r.blocks = append(r.blocks, packedBlock{len(r.packed), bw.Len()})
		r.packed = append(r.packed, bw.Bytes()...)
	})

	// Decode rungs over the records the pack rung wrote.
	var br bitvec.Reader
	block := func(s int) {
		b := r.blocks[s]
		br.ResetBits(r.packed[b.off:], b.bits)
	}
	record := func() (hit bool, dev, extra, id uint64, basis *bitvec.Vector) {
		hit, _ = br.ReadBit()
		dev, _ = br.ReadUint(m)
		extra, _ = br.ReadUint(1)
		if hit {
			id, _ = br.ReadUint(idBits)
		} else {
			basis, _ = br.ReadVector(k)
		}
		return
	}
	tUnpack := timeOps(tr, rungUnpack, segs, func(s int) {
		for block(s); br.Remaining() > 0; {
			_, dev, _, _, _ := record()
			sink ^= uint32(dev)
		}
	})
	lookup := func(d *gd.Dictionary, hit bool, id uint64, basis *bitvec.Vector) *bitvec.Vector {
		if hit {
			basis, _ = d.LookupIDTouch(uint32(id))
		} else {
			d.Insert(basis)
		}
		return basis
	}
	dict = gd.NewDictionary(idBits)
	tDictD := timeOps(tr, rungDictD, segs, func(s int) {
		for block(s); br.Remaining() > 0; {
			hit, _, _, id, basis := record()
			if lookup(dict, hit, id, basis) == nil {
				err = fmt.Errorf("ladder: unknown identifier %d", id)
			}
		}
	})
	dict = gd.NewDictionary(idBits)
	clear(r.out)
	tMerge := timeOps(tr, rungMerge, segs, func(s int) {
		out := r.seg(r.out, s)[:0]
		for block(s); br.Remaining() > 0 && err == nil; {
			hit, dev, extra, id, basis := record()
			out, err = r.codec.MergeChunk(gd.Split{
				Basis: lookup(dict, hit, id, basis), Deviation: uint32(dev), Extra: uint8(extra),
			}, out)
		}
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(r.out, r.plain) {
		return fmt.Errorf("ladder: the merge rung did not reproduce the plaintext")
	}

	n := float64(chunks)
	for _, t := range []struct {
		rung string
		d    time.Duration
	}{
		{"crc", tCRC}, {"split", tSplit}, {"dict", tDict}, {"pack", tPack}, {"write", r.topEnc},
		{"unpack", tUnpack}, {"dictd", tDictD}, {"merge", tMerge}, {"read", r.topDec},
	} {
		layer.add(t.rung, float64(t.d.Nanoseconds())/n)
	}
	layer.add("gd.dict_hits", float64(hits))
	layer.add("gd.dict_misses", float64(misses))
	layer.add("gd.dict_evictions", float64(evictions))
	layer.add("gd.dict_hit_share", float64(hits)/n)
	mb := float64(len(r.plain)) / 1e6
	layer.add("zipline.encode_allocs_per_mb", float64(r.encAllocs)/mb)
	layer.add("zipline.decode_allocs_per_mb", float64(r.decAllocs)/mb)
	if r.sensor {
		return r.sideRungs(tr, layer)
	}
	return nil
}

// layers turns the rungs' times (ns per chunk) into the layers' self
// times and the taxes.
func (r *streamRunner) layers(t map[string]float64) map[string]float64 {
	m := map[string]float64{
		"crc.ns_per_chunk":               t["crc"],
		"gd.split_ns_per_chunk":          t["split"] - t["crc"],
		"gd.dict_ns_per_chunk":           t["dict"] - t["split"],
		"bitvec.pack_ns_per_chunk":       t["pack"] - t["dict"],
		"zipline.framing_ns_per_chunk":   t["write"] - t["pack"],
		"zipline.encode_tax":             t["write"] / t["split"],
		"bitvec.unpack_ns_per_chunk":     t["unpack"],
		"gd.dict_decode_ns_per_chunk":    t["dictd"] - t["unpack"],
		"gd.merge_ns_per_chunk":          t["merge"] - t["dictd"],
		"zipline.deframing_ns_per_chunk": t["read"] - t["merge"],
		"zipline.decode_tax":             t["read"] / (t["merge"] - t["dictd"]),
	}
	if r.sensor {
		rate := func(nsPerChunk float64) float64 { return chunkBytes / nsPerChunk * 1e3 } // MB/s
		m["zipline.encodeall_mb_s"] = rate(t["encodeall"])
		m["zipline.decodeall_mb_s"] = rate(t["decodeall"])
		m["parallel.encode_mb_s"] = rate(t["parenc"])
		m["parallel.decode_mb_s"] = rate(t["pardec"])
		m["parallel.speedup"] = t["write"] / t["parenc"]
	}
	return m
}

// sideRungs times the one-shot and the sharded paths over the same
// segments: EncodeAll/DecodeAll per segment against a trained
// dictionary, and the 2-worker parallel writer and reader over the
// whole input.
func (r *streamRunner) sideRungs(tr *tracer, layer samples) error {
	segs := len(r.plain) / segBytes
	if r.dict == nil {
		d, err := zipline.TrainDict(r.plain, zipline.Config{})
		if err != nil {
			return err
		}
		r.dict = d
	}
	enc, err := zipline.NewWriter(io.Discard, zipline.WithDict(r.dict))
	if err != nil {
		return err
	}
	dec, err := zipline.NewReader(nil, zipline.WithDict(r.dict))
	if err != nil {
		return err
	}
	comps := make([][]byte, segs)
	arena := r.sideBuf[:0]
	tEnc := timeOps(tr, rungEncAll, segs, func(i int) {
		n := len(arena)
		arena = enc.EncodeAll(r.seg(r.plain, i), arena)
		comps[i] = arena[n:len(arena):len(arena)]
	})
	r.sideBuf = arena
	clear(r.out)
	tDec := timeOps(tr, rungDecAll, segs, func(i int) {
		if _, e := dec.DecodeAll(comps[i], r.seg(r.out, i)[:0]); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(r.out, r.plain) {
		return fmt.Errorf("ladder: DecodeAll did not reproduce the plaintext")
	}
	n := float64(len(r.plain) / chunkBytes)
	layer.add("encodeall", float64(tEnc.Nanoseconds())/n)
	layer.add("decodeall", float64(tDec.Nanoseconds())/n)

	r.comp.Reset()
	pw, err := zipline.NewParallelWriter(&r.comp, zipline.Config{}, 2)
	if err != nil {
		return err
	}
	if tEnc, err = writeSegments(tr, rungParEnc, pw, r.plain); err != nil {
		return err
	}
	pr, err := zipline.NewParallelReader(bytes.NewReader(r.comp.Bytes()))
	if err != nil {
		return err
	}
	clear(r.out)
	tDec = timeOps(tr, rungParDec, segs, func(i int) {
		if _, e := io.ReadFull(pr, r.seg(r.out, i)); e != nil {
			err = e
		}
	})
	if e := pr.Close(); e != nil && err == nil {
		err = e
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(r.out, r.plain) {
		return fmt.Errorf("ladder: the parallel reader did not reproduce the plaintext")
	}
	layer.add("parenc", float64(tEnc.Nanoseconds())/n)
	layer.add("pardec", float64(tDec.Nanoseconds())/n)
	return nil
}
