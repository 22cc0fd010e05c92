package ziphttp

import (
	"io"
	"sync"

	"zipline"
)

// enginePools owns one writer pool and one reader pool per encoder
// variant: the dictless one, under the nil dictionary, plus each
// registered dictionary. The variant set is fixed at construction, so
// lookups are lock-free map reads and the only synchronisation is
// sync.Pool's own. A pooled engine is re-served with Reset, which keeps
// its dictionary, block buffers and worker state — the steady-state
// acquire→encode→release cycle allocates nothing (pinned by
// TestPooledWriterZeroAllocs).
type enginePools struct {
	set      settings
	variants map[*zipline.Dict]*variant
	byID     map[uint32]*zipline.Dict // negotiation: a Zipline-Dict id to its dictionary
}

// variant is the engine pools of one encoder variant.
type variant struct{ writers, readers sync.Pool }

// newEnginePools builds the pools and eagerly constructs one writer
// per variant, so configuration errors (e.g. a WithConfig conflicting
// with a dictionary's training point) surface at construction time,
// not mid-request.
func newEnginePools(set settings) (*enginePools, error) {
	p := &enginePools{
		set:      set,
		variants: make(map[*zipline.Dict]*variant, 1+len(set.dicts)),
		byID:     make(map[uint32]*zipline.Dict, len(set.dicts)),
	}
	for _, d := range append([]*zipline.Dict{nil}, set.dicts...) {
		opts := set.ziplineOptions(d)
		probe, err := zipline.NewWriter(io.Discard, opts...)
		if err != nil {
			return nil, err
		}
		v := &variant{}
		v.writers.New = func() any {
			zw, err := zipline.NewWriter(io.Discard, opts...)
			if err != nil {
				// Unreachable: the probe above validated this option set.
				panic("ziphttp: " + err.Error())
			}
			return zw
		}
		v.writers.Put(probe)
		v.readers.New = func() any {
			zr, err := zipline.NewReader(nil, opts...)
			if err != nil {
				panic("ziphttp: " + err.Error())
			}
			return zr
		}
		p.variants[d] = v
		if d != nil {
			p.byID[d.ID()] = d
		}
	}
	return p, nil
}

// getWriter borrows a pooled writer for the dictionary (nil for
// dictless) and points it at w.
func (p *enginePools) getWriter(d *zipline.Dict, w io.Writer) *zipline.Writer {
	zw := p.variants[d].writers.Get().(*zipline.Writer)
	zw.Reset(w)
	return zw
}

// putWriter returns a writer to its pool. Reset drops the reference to
// the request's ResponseWriter so the pool never pins one.
func (p *enginePools) putWriter(d *zipline.Dict, zw *zipline.Writer) {
	zw.Reset(io.Discard)
	p.variants[d].writers.Put(zw)
}

// getReader borrows a pooled reader for the dictionary (nil for
// dictless) and points it at r.
func (p *enginePools) getReader(d *zipline.Dict, r io.Reader) *zipline.Reader {
	zr := p.variants[d].readers.Get().(*zipline.Reader)
	zr.Reset(r)
	return zr
}

// putReader returns a reader to its pool, dropping its source
// reference first.
func (p *enginePools) putReader(d *zipline.Dict, zr *zipline.Reader) {
	zr.Reset(nil)
	p.variants[d].readers.Put(zr)
}
