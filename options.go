package zipline

import (
	"fmt"
	"runtime"
)

// Option configures a Writer or a Reader at construction:
//
//	zw, err := zipline.NewWriter(w, zipline.WithConfig(cfg), zipline.WithWorkers(8))
//	zr, err := zipline.NewReader(r, zipline.WithDict(dict))
//
// A bare Config is itself an Option (see Config.applyOption), so the
// pre-options call form NewWriter(w, cfg) keeps compiling unchanged.
type Option interface {
	applyOption(*settings) error
}

// settings is the resolved option state shared by Writer and Reader.
type settings struct {
	cfg        Config
	cfgSet     bool
	workers    int
	dict       *Dict
	index      bool
	indexEvery int
}

type optionFunc func(*settings) error

func (f optionFunc) applyOption(s *settings) error { return f(s) }

// applyOption lets a bare Config be passed where an Option is
// expected: NewWriter(w, cfg) is NewWriter(w, WithConfig(cfg)).
func (c Config) applyOption(s *settings) error {
	s.cfg, s.cfgSet = c, true
	return nil
}

// WithConfig selects the GD operating point (the zero Config is the
// paper's deployment). Writers record the configuration in the stream
// header; Readers always follow the header, so the option only serves
// to cross-check a WithDict configuration there.
func WithConfig(cfg Config) Option { return cfg }

// WithWorkers sets the encode (Writer) or decode (Reader) concurrency.
// 1 — the default — is the serial path; n > 1 selects the sharded
// parallel engine with one basis-dictionary shard per worker (capped
// at 255, the widest shard count the container records); 0 means
// GOMAXPROCS. A parallel Reader follows the stream: one decode lane
// per recorded shard, or n lanes sharing a single-shard indexed
// (WithIndex) stream checkpoint by checkpoint.
func WithWorkers(n int) Option {
	return optionFunc(func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("zipline: workers %d out of range (0 = all CPUs, 1 = serial, ≤%d)", n, maxShards)
		}
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		if n > maxShards {
			n = maxShards
		}
		s.workers = n
		return nil
	})
}

// WithDict attaches a shared pre-trained dictionary (see TrainDict):
// the frozen bases are available to every encoder shard from the
// first chunk, and the container records the dictionary's identity so
// Readers can verify they hold the same one. A nil dict clears the
// option. The dictionary fixes the configuration; combining WithDict
// with a conflicting WithConfig is an error.
func WithDict(d *Dict) Option {
	return optionFunc(func(s *settings) error {
		s.dict = d
		return nil
	})
}

// WithIndex makes a Writer emit the version-4 seekable container: a
// magic-framed, CRC-protected footer of group offsets and
// dictionary-state checkpoints appended after the stream trailer,
// where pre-index readers never look. checkpointBytes sets the
// uncompressed distance between checkpoints (rounded up to a whole
// chunk); 0 selects the 16 KiB default. At each checkpoint the
// encoder resets its basis dictionary to the frozen prefix of the
// shared Dict (or empty), so a Reader can start decoding at any
// checkpoint — that is what Reader.Seek/ReadAt and the indexed
// DecodeAll/NewReader worker fan-out build on. Indexing requires the
// serial writer (the index records one dictionary timeline); combining
// WithIndex with WithWorkers(n > 1) on a Writer is an error. On a
// Reader the option is accepted and ignored: readers follow the
// stream.
func WithIndex(checkpointBytes int) Option {
	return optionFunc(func(s *settings) error {
		if checkpointBytes < 0 {
			return fmt.Errorf("zipline: checkpoint interval %d out of range (0 = default %d)", checkpointBytes, defaultCheckpointBytes)
		}
		s.index = true
		s.indexEvery = checkpointBytes
		return nil
	})
}

// resolveOptions folds opts over the defaults (serial, no dict,
// paper-point Config) and cross-checks dict against an explicit
// configuration.
func resolveOptions(opts []Option) (settings, error) {
	s := settings{workers: 1}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o.applyOption(&s); err != nil {
			return s, err
		}
	}
	if s.dict != nil {
		if s.cfgSet && s.cfg.withDefaults() != s.dict.cfg {
			return s, fmt.Errorf("zipline: config %+v conflicts with dictionary trained at %+v",
				s.cfg.withDefaults(), s.dict.cfg)
		}
		s.cfg = s.dict.cfg
	}
	return s, nil
}
