package zipline

import (
	"io"
	"sync"

	"zipline/internal/bitvec"
)

// Parallel streaming engines. Both sides keep the same shape: groups
// cross a bounded in-order queue, and each goes to the one goroutine
// that owns its dictionary timeline.
//
// Encode (container versions 2 and 3): a Writer configured with
// WithWorkers(n > 1) splits its input into large fixed-size segments
// and fans them out to n workers, pgzip-style. Worker w owns basis
// dictionary shard w and encodes segments seq ≡ w (mod n) in order, so
// each shard's identifier assignment evolves deterministically; a
// collector goroutine emits the encoded groups strictly in segment
// order through the Writer's one group emitter (stream.go), which
// records the shard per group.
//
// Decode (any grouped version): a Reader configured with
// WithWorkers(n > 1) runs parReader (below) over any io.Reader, pipes
// included.
//
// Sharding trades a little compression for parallelism: each shard
// only learns from the segments it encodes, so cross-shard duplicate
// bases are stored once per shard — unless a shared pre-trained Dict
// (WithDict) puts the hot bases in every shard from the first chunk.
// With segments of 128 KiB the loss is small on the paper's
// workloads, and throughput scales with cores — the software analogue
// of ZipLine running one GD pipeline per switch port. Checkpoints cost
// the same way: each one re-learns the dictionary from the frozen
// prefix.

// defaultSegmentBytes is the input segment handed to each worker. It
// is a multiple of every valid chunk size (chunks are 2^(M-3) ≤ 4096
// bytes), large enough to amortise hand-off costs and small enough to
// keep per-shard dictionaries warm.
const defaultSegmentBytes = 128 << 10

// maxShards is the widest shard count the container header can record.
const maxShards = 255

// pwJob carries one input segment through an encode worker.
type pwJob struct {
	shard uint8
	data  []byte         // input segment (owned by the job until collected)
	block *bitvec.Writer // encoded records
	stats StreamStats
	err   error
	done  chan struct{}
}

// parEngine is the sharded encode engine behind a Writer with
// workers > 1. Its goroutines and channels are started lazily on the
// first dispatched segment and torn down by close/reset, so a pooled
// Writer holds no goroutines between streams; the segment and block
// pools persist across streams.
type parEngine struct {
	shards  int
	segSize int

	running       bool
	jobs          []chan *pwJob
	order         chan *pwJob
	collectorDone chan struct{}

	zw *Writer // owner: the collector emits through its writeGroup

	pending []byte // partial input segment
	seq     uint32 // segments dispatched

	bufPool   sync.Pool // segment input buffers
	blockPool sync.Pool // *bitvec.Writer block buffers

	mu   sync.Mutex
	werr error // first encode/write error, set by the collector
}

func newParEngine(zw *Writer) *parEngine {
	cs := zw.codec.ChunkSize()
	segSize := defaultSegmentBytes
	if rem := segSize % cs; rem != 0 {
		segSize += cs - rem
	}
	pe := &parEngine{zw: zw, shards: zw.set.workers, segSize: segSize}
	pe.bufPool.New = func() any { return make([]byte, 0, segSize) }
	pe.blockPool.New = func() any { return bitvec.NewWriter(segSize/cs*4 + 256) }
	return pe
}

func (pe *parEngine) setErr(err error) {
	pe.mu.Lock()
	if pe.werr == nil {
		pe.werr = err
	}
	pe.mu.Unlock()
}

func (pe *parEngine) error() error {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.werr
}

// start spins up the workers and collector for one stream.
func (pe *parEngine) start() {
	if pe.running {
		return
	}
	pe.running = true
	pe.jobs = make([]chan *pwJob, pe.shards)
	pe.order = make(chan *pwJob, 2*pe.shards)
	pe.collectorDone = make(chan struct{})
	for i := range pe.jobs {
		pe.jobs[i] = make(chan *pwJob, 2)
		go pe.worker(pe.jobs[i])
	}
	go pe.collect(pe.order, pe.collectorDone)
}

// shutdown closes the job channels and waits for the collector, so
// every goroutine has exited and every in-flight group is accounted
// for when it returns.
func (pe *parEngine) shutdown() {
	if !pe.running {
		return
	}
	pe.running = false
	for _, ch := range pe.jobs {
		close(ch)
	}
	close(pe.order)
	<-pe.collectorDone
	pe.jobs, pe.order, pe.collectorDone = nil, nil, nil
}

// reset returns the engine to its pre-stream state (Writer.Reset).
func (pe *parEngine) reset() {
	pe.shutdown()
	if pe.pending != nil {
		//ziplint:allow noalloc slice header boxed into sync.Pool only when Reset interrupts a partial segment — teardown, not steady state
		pe.bufPool.Put(pe.pending[:0])
		pe.pending = nil
	}
	pe.seq = 0
	pe.mu.Lock()
	pe.werr = nil
	pe.mu.Unlock()
}

// worker encodes one shard's segments in arrival order against the
// shard's persistent dictionary (seeded with the shared Dict when one
// is configured). The job channel is passed in because shutdown may
// clear the engine's channel slice before a freshly spawned worker
// gets scheduled.
func (pe *parEngine) worker(jobs <-chan *pwJob) {
	enc := newBlockEncoder(pe.zw.codec, pe.zw.set.dict)
	cs := pe.zw.codec.ChunkSize()
	for job := range jobs {
		enc.block, enc.stats = job.block, &job.stats
		for off := 0; off < len(job.data) && job.err == nil; off += cs {
			job.err = enc.encodeChunk(job.data[off : off+cs])
		}
		close(job.done)
	}
}

// collect writes finished groups to the underlying writer in segment
// order. It keeps draining after a failure so dispatchers never block.
// Between start and shutdown the collector is the only goroutine
// emitting, so it borrows the Writer's group emitter (and its scratch
// and sequence counter) outright.
func (pe *parEngine) collect(order <-chan *pwJob, done chan<- struct{}) {
	defer close(done)
	failed := false
	for job := range order {
		<-job.done
		if !failed {
			err := job.err
			if err == nil {
				err = pe.zw.writeGroup(job.block.Bytes(), uint32(job.block.Len()), job.shard, 0)
			}
			if err != nil {
				pe.setErr(err)
				failed = true
			} else {
				pe.zw.Stats.add(job.stats)
			}
		}
		job.block.Reset()
		pe.blockPool.Put(job.block)
		pe.bufPool.Put(job.data[:0])
	}
}

// dispatch hands a chunk-aligned segment to its shard's worker and
// registers it with the collector, starting the engine if needed.
func (pe *parEngine) dispatch(seg []byte) {
	pe.start()
	shard := int(pe.seq) % pe.shards
	job := &pwJob{
		shard: uint8(shard),
		data:  seg,
		block: pe.blockPool.Get().(*bitvec.Writer),
		done:  make(chan struct{}),
	}
	pe.seq++
	pe.order <- job
	pe.jobs[shard] <- job
}

// parWrite is Writer.Write for workers > 1.
func (zw *Writer) parWrite(p []byte) (int, error) {
	pe := zw.par
	if err := pe.error(); err != nil {
		return 0, err
	}
	if err := zw.writeHeader(); err != nil {
		return 0, err
	}
	n := len(p)
	for len(p) > 0 {
		if pe.pending == nil {
			pe.pending = pe.bufPool.Get().([]byte)
		}
		take := min(pe.segSize-len(pe.pending), len(p))
		pe.pending = append(pe.pending, p[:take]...)
		p = p[take:]
		if len(pe.pending) == pe.segSize {
			pe.dispatch(pe.pending)
			pe.pending = nil
			// Re-check the latch per segment so a large Write stops
			// segmenting (and the workers stop encoding) as soon as
			// the collector records a failure, not at the next call.
			if err := pe.error(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

// parDrain is the sharded half of Writer.Close: it dispatches the final
// partial segment (parking its sub-chunk remainder in zw.pending for
// finish to emit as the raw tail) and waits for every worker.
func (zw *Writer) parDrain() error {
	pe := zw.par
	if len(pe.pending) > 0 {
		cs := zw.codec.ChunkSize()
		full := len(pe.pending) / cs * cs
		// The sub-chunk remainder must outlive the recycled buffer.
		zw.pending = append(zw.pending[:0], pe.pending[full:]...)
		if full > 0 {
			pe.dispatch(pe.pending[:full]) // collector recycles the buffer
		} else {
			pe.bufPool.Put(pe.pending[:0])
		}
		pe.pending = nil
	}
	pe.shutdown()
	return pe.error()
}

// prJob carries one group through a decode lane.
type prJob struct {
	h    groupHeader
	body []byte
	out  []byte
	err  error
	done chan struct{}
}

// closedChan is a pre-closed done channel for jobs that need no work.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// parReader is the one concurrent decode engine: the pump walks the
// container's groups in order from any io.Reader and deals each record
// group to a lane — a goroutine owning one basis dictionary — while
// Read stitches the lanes' output back together in stream order. What
// makes that lossless is that every group of one dictionary timeline
// reaches the same lane, in order:
//
//   - a sharded stream (v2/v3) has one timeline per shard, recorded in
//     each group header, so lane == shard;
//   - a single-shard indexed stream (v4) has one timeline that the
//     encoder cut at every checkpoint by resetting its dictionary to the
//     frozen prefix. A checkpoint group depends on nothing before it, so
//     a checkpoint is a lane switch: the pump advances round-robin to
//     the next of `workers` lanes, whose decoder replays the reset
//     (decodeGroup) and carries on from there.
//
// The lanes replay exactly what the serial Reader replays, group for
// group, so a forged container — checkpoint flags on a sharded stream,
// a first group without one — decodes to the same bytes or fails on
// both.
type parReader struct {
	gr    groupReader // the pump's until it closes order, then read's
	codec *Codec
	dict  *Dict
	lanes []chan *prJob
	order chan *prJob
	stop  chan struct{}
	once  sync.Once

	laneStats []StreamStats
	pumpTail  uint64
	pumpErr   error // set by the pump before it closes order

	// Buffer recycling, mirroring the writer's pools: compressed group
	// bodies go back to bodyPool once decoded, decoded segments go
	// back to outPool once Read has drained them.
	bodyPool sync.Pool
	outPool  sync.Pool

	cur    []byte
	curBuf []byte // full backing of cur, recycled when drained
}

// newParReader starts the decode lanes and the pump for the stream
// whose header zr has just parsed.
func newParReader(zr *Reader) *parReader {
	lanes := zr.gr.shards
	if lanes == 1 {
		lanes = zr.set.workers
	}
	pr := &parReader{
		gr:        zr.gr,
		codec:     zr.codec,
		dict:      zr.streamDict,
		lanes:     make([]chan *prJob, lanes),
		order:     make(chan *prJob, 2*lanes),
		stop:      make(chan struct{}),
		laneStats: make([]StreamStats, lanes),
	}
	for i := range pr.lanes {
		pr.lanes[i] = make(chan *prJob, 2)
		go pr.worker(i)
	}
	go pr.pump()
	return pr
}

// worker decodes one lane's groups in arrival order against the lane's
// persistent dictionary. The dictionary is built on the first group so
// a corrupt header's shard count cannot force up-front allocation of
// hundreds of full-capacity dictionaries.
func (pr *parReader) worker(lane int) {
	var dec *blockDecoder
	for job := range pr.lanes[lane] {
		if dec == nil {
			dec = newBlockDecoder(pr.codec, &pr.laneStats[lane], pr.dict)
		}
		var out []byte
		if b, _ := pr.outPool.Get().([]byte); b != nil {
			out = b[:0]
		}
		job.out, job.err = dec.decodeGroup(job.h, job.body, out)
		// The compressed body is dead once decoded; every lane-bound
		// job's body came from bodyPool (tail jobs never reach here).
		pr.bodyPool.Put(job.body[:0])
		job.body = nil
		close(job.done)
	}
}

// pump reads groups in stream order, dispatching each to its lane and
// to the in-order queue Read consumes from. It stops at the trailer;
// read finishes the walk (footer included) once the queue drains.
func (pr *parReader) pump() {
	defer func() {
		for _, ch := range pr.lanes {
			close(ch)
		}
		close(pr.order)
	}()
	lane := len(pr.lanes) - 1 // the first checkpoint wraps to lane 0
	for {
		h, err := pr.gr.header()
		if err != nil {
			pr.pumpErr = err
			return
		}
		if h.byteLen == 0 {
			return // trailer
		}
		var body []byte
		if h.bitWord&tailBlockFlag == 0 {
			// Tail bodies are never pooled: the decoded tail aliases
			// them and lives until Read consumes it.
			if b, _ := pr.bodyPool.Get().([]byte); cap(b) >= int(h.byteLen) {
				body = b[:h.byteLen]
			}
		}
		if body == nil {
			body = make([]byte, h.byteLen)
		}
		tail, isTail, err := pr.gr.body(h, body)
		if err != nil {
			pr.pumpErr = err
			return
		}
		var job *prJob
		if isTail {
			pr.pumpTail += uint64(len(tail))
			job = &prJob{out: tail, done: closedChan}
		} else {
			if pr.gr.shards > 1 {
				lane = int(h.shard)
			} else if h.flags&groupFlagCheckpoint != 0 {
				lane = (lane + 1) % len(pr.lanes)
			}
			job = &prJob{h: h, body: body, done: make(chan struct{})}
		}
		select {
		case pr.order <- job:
		case <-pr.stop:
			return
		}
		if !isTail {
			select {
			case pr.lanes[lane] <- job:
			case <-pr.stop:
				return
			}
		}
	}
}

// read is Reader.Read for the parallel decode path.
func (pr *parReader) read(zr *Reader, p []byte) (int, error) {
	for len(pr.cur) == 0 {
		if pr.curBuf != nil {
			pr.outPool.Put(pr.curBuf[:0])
			pr.curBuf = nil
		}
		job, ok := <-pr.order
		if !ok {
			// The pump has exited: at the trailer unless it recorded an
			// error. Every decoded byte has been handed out, so zr.pos
			// is what the stream decoded to.
			if zr.err = pr.pumpErr; zr.err == nil {
				zr.err = pr.gr.trailer(zr.pos)
			}
			if zr.err == nil {
				// Every job's done channel has been observed, so the
				// lanes' counters are visible: fold them in.
				zr.err = io.EOF
				zr.Stats = StreamStats{TailBytes: pr.pumpTail}
				for _, s := range pr.laneStats {
					zr.Stats.add(s)
				}
			}
			return 0, zr.err
		}
		<-job.done
		if job.err != nil {
			zr.err = job.err
			pr.release()
			return 0, zr.err
		}
		pr.cur, pr.curBuf = job.out, job.out
	}
	n := copy(p, pr.cur)
	pr.cur = pr.cur[n:]
	return n, nil
}

// release unblocks the pump so its goroutine can exit early.
func (pr *parReader) release() {
	//ziplint:allow noalloc one-time closure under sync.Once at stream teardown
	pr.once.Do(func() { close(pr.stop) })
}

// ParallelWriter is the sharded writer type of the pre-options API.
//
// Deprecated: ParallelWriter is now an alias for Writer — construct
// with NewWriter(w, cfg, WithWorkers(n)).
type ParallelWriter = Writer

// NewParallelWriter builds a parallel compressing writer with the
// given configuration and worker count (0 selects GOMAXPROCS, capped
// at 255). As before, the container header is written immediately, so
// destination errors still surface at construction.
//
// Deprecated: use NewWriter(w, cfg, WithWorkers(workers)), which
// defers the header to the first Write/Close so the Writer can be
// pooled. Note that workers == 1 now selects the serial (version-1)
// container, which every Reader decodes.
func NewParallelWriter(w io.Writer, cfg Config, workers int) (*ParallelWriter, error) {
	if workers < 0 {
		workers = 0
	}
	zw, err := NewWriter(w, cfg, WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	if err := zw.writeHeader(); err != nil {
		return nil, err
	}
	return zw, nil
}

// ParallelReader is the sharded reader type of the pre-options API.
//
// Deprecated: ParallelReader is now an alias for Reader — construct
// with NewReader(r, WithWorkers(n)).
type ParallelReader = Reader

// NewParallelReader opens a compressed stream with concurrent shard
// decoding, reading and validating its header immediately (unlike
// NewReader, which defers to the first Read).
//
// Deprecated: use NewReader(r, WithWorkers(0)).
func NewParallelReader(r io.Reader) (*ParallelReader, error) {
	zr, err := NewReader(r, WithWorkers(0))
	if err != nil {
		return nil, err
	}
	// The pre-options constructor surfaced header errors eagerly.
	if err := zr.start(); err != nil {
		return nil, err
	}
	return zr, nil
}
