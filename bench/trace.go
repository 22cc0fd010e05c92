package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxSpans bounds the spans one traced run keeps (and so the size of
// its span file). Later ops are still timed the same way, so the
// tracing overhead stays representative; only their spans are dropped.
const maxSpans = 1 << 16

// rung is one step of a workload's ladder: a public entry point of
// one layer. parent is the rung above it ("" for the top rung).
type rung struct {
	name, layer, parent string
}

type span struct {
	rung       *rung
	op         int
	start, end int64 // ns since the tracer's epoch
}

// tracer records one span per op per rung from the benchmark's side
// of each call, in a preallocated slice written out at exit. A nil
// *tracer records nothing, so the untraced passes share the code.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	dropped  int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin returns the op's start time; it is the zero time when tracing
// is off.
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes the span begun at start.
func (t *tracer) end(r *rung, op int, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{r, op, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir string) (path string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path = filepath.Join(dir, "trace-"+t.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"layer":%q,"workload":%q,"op":%d,"start_ns":%d,"end_ns":%d,"parent":%q}`+"\n",
			s.rung.name, s.rung.layer, t.workload, s.op, s.start, s.end, s.rung.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
