package zswitch

import (
	"encoding/binary"
	"fmt"

	"zipline/internal/bitvec"
	"zipline/internal/tofino"
)

// InstallBasisToID adds an encoder dictionary entry (basis → id) to a
// loaded pipeline. Control-plane API; now stamps the entry's idle
// timer. It allocates nothing once the table has held as many entries.
func InstallBasisToID(pl *tofino.Pipeline, basis *bitvec.Vector, id uint32, now int64) error {
	p, err := loadedProgram(pl)
	if err != nil {
		return err
	}
	t, ok := pl.Table(TableBasisToID)
	if !ok {
		return fmt.Errorf("zswitch: pipeline has no %s table", TableBasisToID)
	}
	var act [4]byte
	binary.BigEndian.PutUint32(act[:], id)
	return t.Install(basis.Bytes(), act[4-(p.cfg.IDBits+7)/8:], now)
}

// DeleteBasisToID removes an encoder dictionary entry.
func DeleteBasisToID(pl *tofino.Pipeline, basis *bitvec.Vector) bool {
	t, ok := pl.Table(TableBasisToID)
	if !ok {
		return false
	}
	return t.Delete(basis.Bytes())
}

// InstallIDToBasis adds a decoder dictionary entry (id → basis).
// Control-plane API. Per the paper's protocol this must complete
// before the corresponding InstallBasisToID so that compressed
// packets can always be uncompressed. The basis bytes are copied into
// the table; it allocates nothing once the table has held as many
// entries.
func InstallIDToBasis(pl *tofino.Pipeline, id uint32, basis *bitvec.Vector, now int64) error {
	t, ok := pl.Table(TableIDToBasis)
	if !ok {
		return fmt.Errorf("zswitch: pipeline has no %s table", TableIDToBasis)
	}
	key := IDKey(id)
	return t.Install(key[:], basis.Bytes(), now)
}

// DeleteIDToBasis removes a decoder dictionary entry.
func DeleteIDToBasis(pl *tofino.Pipeline, id uint32) bool {
	t, ok := pl.Table(TableIDToBasis)
	if !ok {
		return false
	}
	key := IDKey(id)
	return t.Delete(key[:])
}

// loadedProgram extracts the ZipLine program from a loaded pipeline.
func loadedProgram(pl *tofino.Pipeline) (*Program, error) {
	p, ok := pl.Program().(*Program)
	if !ok {
		return nil, fmt.Errorf("zswitch: pipeline runs %q, not the zipline program", pl.Program().Name())
	}
	return p, nil
}

// Restart models a dataplane power cycle: both dictionary tables are
// cleared, queued digests are lost, the bypass gate resets, and the
// program's epoch bumps. It returns the new epoch; subsequent digests
// carry it, letting the controller distinguish pre- and post-reboot
// state. Fault-injection / control-plane API.
func Restart(pl *tofino.Pipeline) (uint32, error) {
	p, err := loadedProgram(pl)
	if err != nil {
		return 0, err
	}
	for _, name := range []string{TableBasisToID, TableIDToBasis} {
		if t, ok := pl.Table(name); ok {
			t.Clear()
		}
	}
	pl.DrainDigests() // queued reports die with the reboot
	p.bypass = false
	p.epoch++
	return p.epoch, nil
}

// SetBypass sets or clears the encoder bypass gate: while set, the
// encode role forwards raw traffic uncompressed. One BfRt register
// write from the controller's perspective.
func SetBypass(pl *tofino.Pipeline, on bool) error {
	p, err := loadedProgram(pl)
	if err != nil {
		return err
	}
	p.bypass = on
	return nil
}

// Epoch reads a pipeline's restart epoch (0 = never restarted).
func Epoch(pl *tofino.Pipeline) uint32 {
	p, err := loadedProgram(pl)
	if err != nil {
		return 0
	}
	return p.epoch
}

// SplitDigest separates a new-basis digest payload into the basis
// bytes and the emitting program's epoch. Pre-restart digests carry
// the bare basis (epoch 0); post-restart digests append a 4-byte
// big-endian epoch.
func SplitDigest(data []byte, basisBytes int) (basis []byte, epoch uint32) {
	if len(data) == basisBytes+4 {
		return data[:basisBytes], binary.BigEndian.Uint32(data[basisBytes:])
	}
	return data, 0
}

// ExpiredBases returns the basis keys whose encoder-table idle
// timeout has lapsed (the TNA aging notification feed).
func ExpiredBases(pl *tofino.Pipeline, now int64) []string {
	t, ok := pl.Table(TableBasisToID)
	if !ok {
		return nil
	}
	return t.ExpiredKeys(now)
}

// Stats is a snapshot of the program's classification counters. The
// JSON field names are stable (scenario reports and sweep matrices
// embed this struct and must diff cleanly).
type Stats struct {
	RawToType2 uint64 `json:"raw_to_type2"`
	RawToType3 uint64 `json:"raw_to_type3"`
	Type2ToRaw uint64 `json:"type2_to_raw"`
	Type3ToRaw uint64 `json:"type3_to_raw"`
	Forwarded  uint64 `json:"forwarded"`
	TooShort   uint64 `json:"too_short"`
	DecodeMiss uint64 `json:"decode_miss"`
	Digests    uint64 `json:"digests"`
	// EncPayloadIn/EncPayloadOut count payload bytes entering and
	// leaving the encode role for raw traffic; their ratio is the
	// hop's exact compression ratio.
	EncPayloadIn  uint64 `json:"enc_payload_in"`
	EncPayloadOut uint64 `json:"enc_payload_out"`
	// Bypass counts raw frames forwarded uncompressed under the
	// control-plane bypass gate (omitted from JSON when zero so
	// fault-free reports keep their pre-fault bytes).
	Bypass uint64 `json:"bypass,omitempty"`
}

// ReadStats snapshots the counters of a loaded pipeline.
func ReadStats(pl *tofino.Pipeline) Stats {
	return Stats{
		RawToType2:    pl.Counter(CounterRawToType2),
		RawToType3:    pl.Counter(CounterRawToType3),
		Type2ToRaw:    pl.Counter(CounterType2ToRaw),
		Type3ToRaw:    pl.Counter(CounterType3ToRaw),
		Forwarded:     pl.Counter(CounterForwarded),
		TooShort:      pl.Counter(CounterTooShort),
		DecodeMiss:    pl.Counter(CounterDecodeMiss),
		Digests:       pl.Counter(CounterDigests),
		EncPayloadIn:  pl.Counter(CounterEncPayloadIn),
		EncPayloadOut: pl.Counter(CounterEncPayloadOut),
		Bypass:        pl.Counter(CounterBypass),
	}
}

// Add accumulates o into s (aggregating several pipelines' views).
func (s *Stats) Add(o Stats) {
	s.RawToType2 += o.RawToType2
	s.RawToType3 += o.RawToType3
	s.Type2ToRaw += o.Type2ToRaw
	s.Type3ToRaw += o.Type3ToRaw
	s.Forwarded += o.Forwarded
	s.TooShort += o.TooShort
	s.DecodeMiss += o.DecodeMiss
	s.Digests += o.Digests
	s.EncPayloadIn += o.EncPayloadIn
	s.EncPayloadOut += o.EncPayloadOut
	s.Bypass += o.Bypass
}

// Encoded reports the total packets the encoder path transformed.
func (s Stats) Encoded() uint64 { return s.RawToType2 + s.RawToType3 }
