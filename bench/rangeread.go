package main

import (
	"bytes"
	"io"
	"math/rand"
	"time"

	"zipline"
)

const (
	readBytes = 4 << 10
	// checkpointBytes is WithIndex(0)'s default interval, for
	// seekindex.useful_share.
	checkpointBytes = 16 << 10
)

var (
	rungReadAt   = &rung{"zipline.Reader.ReadAt", "seekindex", ""}
	rungSeekRead = &rung{"zipline.Reader.Seek+ReadFull", "seekindex", rungReadAt.name}
	rungSeek     = &rung{"zipline.Reader.Seek", "seekindex", rungSeekRead.name}
	rungSeqRead  = &rung{"zipline.Reader.Read", "zipline", rungSeek.name}
	rungIdxWrite = &rung{"zipline.Writer.Write(WithIndex)", "zipline", ""}
)

type rangeRunner struct {
	plain []byte
	// dict covers the plaintext: an indexed container falls back to
	// its frozen dictionary at every checkpoint, and without one 45 %
	// of the records carry whole bases and the reads measure
	// stream-noise's decode path again instead of the seek path.
	dict *zipline.Dict
	offs []int64
	comp bytes.Buffer
	buf  []byte

	topReads   time.Duration
	readAllocs uint64
}

func setupRangeRead(seed int64, quick bool) (runner, error) {
	size, reads := 16<<20, 4_000
	if quick {
		size, reads = 1<<20, 500
	}
	plain, err := sensorInput(seed, size)
	if err != nil {
		return nil, err
	}
	dict, err := zipline.TrainDict(plain, zipline.Config{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	offs := make([]int64, reads)
	for i := range offs {
		offs[i] = rng.Int63n(int64(size - readBytes + 1))
	}
	r := &rangeRunner{plain: plain, dict: dict, offs: offs, buf: make([]byte, readBytes)}
	r.comp.Grow(size / 4)
	return r, nil
}

func (r *rangeRunner) inputHash() uint64 {
	h := hashBytes(r.plain)
	for _, o := range r.offs {
		h = h*1099511628211 ^ uint64(o)
	}
	return h
}

func (r *rangeRunner) close() {}

// pass writes the indexed container, then reads the seeded offsets
// from it. ops_per_s counts the reads over the time spent reading.
func (r *rangeRunner) pass(tr *tracer) (passResult, error) {
	r.comp.Reset()
	zw, err := zipline.NewWriter(&r.comp, zipline.WithDict(r.dict), zipline.WithIndex(0))
	if err != nil {
		return passResult{}, err
	}
	enc, err := writeSegments(tr, rungIdxWrite, zw, r.plain)
	if err != nil {
		return passResult{}, err
	}

	zr, err := zipline.NewReader(bytes.NewReader(r.comp.Bytes()), zipline.WithDict(r.dict))
	if err != nil {
		return passResult{}, err
	}
	var m0 uint64
	if tr != nil {
		m0 = mallocs()
	}
	failed := 0
	reads := timeOps(tr, rungReadAt, len(r.offs), func(i int) {
		off := r.offs[i]
		if n, err := zr.ReadAt(r.buf, off); n != readBytes || (err != nil && err != io.EOF) ||
			!bytes.Equal(r.buf, r.plain[off:off+readBytes]) {
			failed++
		}
	})
	if tr != nil {
		r.readAllocs = mallocs() - m0
		r.topReads = reads
	}
	return passResult{
		attempted: len(r.offs), failed: failed,
		opsPerS:   float64(len(r.offs)) / reads.Seconds(),
		encodeMBs: mbPerS(len(r.plain), enc),
		decodeMBs: mbPerS(len(r.offs)*readBytes, reads),
		wireRatio: float64(r.comp.Len()) / float64(len(r.plain)),
		top:       enc + reads,
	}, nil
}

func (r *rangeRunner) ladder(tr *tracer, layer samples) error {
	n := len(r.offs)
	newReader := func() (*zipline.Reader, error) {
		return zipline.NewReader(bytes.NewReader(r.comp.Bytes()), zipline.WithDict(r.dict))
	}
	// Sequential reads of the same size: what a read costs with no
	// seeking, wrapping to a fresh reader at the end of the stream.
	zr, err := newReader()
	if err != nil {
		return err
	}
	perStream := len(r.plain) / readBytes
	tSeq := timeOps(tr, rungSeqRead, n, func(i int) {
		if i%perStream == 0 && i > 0 {
			zr, err = newReader()
		}
		if err == nil {
			_, err = io.ReadFull(zr, r.buf)
		}
	})
	if err != nil {
		return err
	}
	if zr, err = newReader(); err != nil {
		return err
	}
	tSeek := timeOps(tr, rungSeek, n, func(i int) {
		if _, e := zr.Seek(r.offs[i], io.SeekStart); e != nil {
			err = e
		}
	})
	tSeekRead := timeOps(tr, rungSeekRead, n, func(i int) {
		if _, e := zr.Seek(r.offs[i], io.SeekStart); e != nil {
			err = e
		}
		if _, e := io.ReadFull(zr, r.buf); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	var back int64
	for _, o := range r.offs {
		back += o % checkpointBytes
	}
	layer.add("seq", perOp(tSeq, n))
	layer.add("seek", perOp(tSeek, n))
	layer.add("seekread", perOp(tSeekRead, n))
	layer.add("readat", perOp(r.topReads, n))
	layer.add("seekindex.allocs_per_read", float64(r.readAllocs)/float64(n))
	layer.add("seekindex.useful_share", readBytes/(readBytes+float64(back)/float64(n)))
	return nil
}

// layers names the rungs' times (ns per read); they are whole rungs.
func (r *rangeRunner) layers(t map[string]float64) map[string]float64 {
	return map[string]float64{
		"zipline.seq_read_ns_per_4k": t["seq"],
		"seekindex.seek_ns":          t["seek"],
		"seekindex.read_ns":          t["seekread"],
		"seekindex.tax":              t["readat"] / t["seq"],
	}
}
