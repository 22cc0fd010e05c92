package trace

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"zipline/internal/gd"
	"zipline/internal/packet"
	"zipline/internal/pcap"
)

// Trace is a sequence of equally sized payload records, stored
// contiguously to keep multi-million-record datasets cheap.
type Trace struct {
	Name       string
	RecordSize int
	data       []byte
}

// NewTrace wraps pre-generated data; len(data) must be a multiple of
// recordSize.
func NewTrace(name string, recordSize int, data []byte) *Trace {
	if recordSize <= 0 || len(data)%recordSize != 0 {
		panic(fmt.Sprintf("trace: %d bytes is not a whole number of %d-byte records", len(data), recordSize))
	}
	return &Trace{Name: name, RecordSize: recordSize, data: data}
}

// Records returns the number of records.
func (t *Trace) Records() int { return len(t.data) / t.RecordSize }

// Record returns record i as a sub-slice (do not mutate).
func (t *Trace) Record(i int) []byte {
	off := i * t.RecordSize
	return t.data[off : off+t.RecordSize]
}

// Bytes returns the concatenated records (the "regular file" the
// paper feeds to gzip for the baseline bar).
func (t *Trace) Bytes() []byte { return t.data }

// TotalBytes returns the dataset's original size — the denominator of
// every Figure 3 ratio.
func (t *Trace) TotalBytes() int { return len(t.data) }

// WritePcap converts the trace to a pcap of Ethernet frames (one
// record per frame payload), the artifact the paper replays.
func (t *Trace) WritePcap(w *pcap.Writer, src, dst packet.MAC, nsPerPacket int64) error {
	hdr := packet.Header{Dst: dst, Src: src, EtherType: packet.EtherTypeRaw}
	for i := 0; i < t.Records(); i++ {
		frame := packet.Frame(hdr, t.Record(i))
		if err := w.WritePacket(int64(i)*nsPerPacket, frame); err != nil {
			return err
		}
	}
	return nil
}

// DistinctBases counts distinct GD bases under the codec — the
// dictionary ZipLine needs. The codec's chunk size must equal the
// record size.
func (t *Trace) DistinctBases(c *gd.Codec) (int, error) {
	if c.ChunkBytes() != t.RecordSize {
		return 0, fmt.Errorf("trace: record size %d != chunk size %d", t.RecordSize, c.ChunkBytes())
	}
	seen := make(map[string]struct{})
	var s gd.Split // one basis buffer for the whole walk
	for i := 0; i < t.Records(); i++ {
		if err := c.SplitChunkInto(t.Record(i), &s); err != nil {
			return 0, err
		}
		seen[string(s.Basis.Bytes())] = struct{}{}
	}
	return len(seen), nil
}

// SensorConfig parameterises the synthetic dataset. Zero values take
// the paper's scale.
type SensorConfig struct {
	// Records is the total chunk count (default 3,124,000 — the
	// paper's figure).
	Records int
	// Sensors is the fleet size reporting round-robin (default 200).
	Sensors int
	// GlitchProb corrupts a reading with transient bit-flip noise.
	// Only meaningful with SnapCodec, which keeps glitches inside
	// the code's correction ball; default 0.
	GlitchProb float64
	// GlitchBits is how many distinct bits each glitch flips
	// (default 1; use 2 with a T=2 SnapCodec for the BCH ablation).
	GlitchBits int
	// SnapCodec, when set, quantises every baseline reading to its
	// nearest GD codeword (syndrome zero) under the codec — the
	// GD-aware quantisation of the IoT literature the paper builds
	// on. Glitched variants then share the baseline's basis.
	SnapCodec *gd.Codec
	// NoiseBits, when positive, fills the record's trailing NoiseBits
	// bits (bytes 30–31: a raw ADC diagnostic sample) with fresh
	// randomness each record — the low-order measurement noise the
	// bit-swapping transform of [37] targets. At most 16.
	NoiseBits int
	// Seed drives all randomness (default 1).
	Seed int64
}

// Paper-scale defaults for SensorConfig.
const (
	DefaultSensorRecords = 3_124_000
	DefaultSensors       = 200
)

// changeProb is the per-reading probability that one measured field
// steps to a new quantised value; 0.008 keeps the whole day's bases
// inside the 32,768-entry dictionary.
const changeProb = 0.008

func (c SensorConfig) withDefaults() SensorConfig {
	if c.Records == 0 {
		c.Records = DefaultSensorRecords
	}
	if c.Sensors == 0 {
		c.Sensors = DefaultSensors
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.GlitchBits == 0 {
		c.GlitchBits = 1
	}
	return c
}

// sensorState is one device's current quantised reading.
type sensorState struct {
	temp     int32 // milli-degC
	humid    int32 // milli-%RH
	pressure int32 // Pa
	co2      int32 // ppm
	battery  uint16
	uuid     [8]byte
}

// Sensor generates the synthetic dataset: 32-byte records
// (sensor ID, status flags, four quantised measurements, battery,
// device UUID) from a round-robin fleet. Readings persist across many
// report intervals and step occasionally, so values repeat heavily —
// the property that gives both GD and gzip traction, as in the
// paper's Figure 3.
func Sensor(cfg SensorConfig) *Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	states := make([]sensorState, cfg.Sensors)
	for i := range states {
		states[i] = sensorState{
			temp:     18_000 + int32(rng.Intn(80))*250, // 18–38 °C in 0.25 °C steps
			humid:    30_000 + int32(rng.Intn(160))*250,
			pressure: 98_000 + int32(rng.Intn(160))*25,
			co2:      400 + int32(rng.Intn(120))*10,
			battery:  3300,
		}
		rng.Read(states[i].uuid[:])
	}

	const recordSize = 32
	data := make([]byte, cfg.Records*recordSize)
	rec := make([]byte, recordSize)
	scratch := make([]byte, 0, recordSize)
	var split gd.Split // snapToCodeword's basis buffer, reused by every record
	for i := 0; i < cfg.Records; i++ {
		id := i % cfg.Sensors
		st := &states[id]
		if rng.Float64() < changeProb {
			step := int32(1)
			if rng.Intn(2) == 0 {
				step = -1
			}
			switch rng.Intn(4) {
			case 0:
				st.temp += step * 250
			case 1:
				st.humid += step * 250
			case 2:
				st.pressure += step * 25
			case 3:
				st.co2 += step * 10
			}
		}
		binary.BigEndian.PutUint16(rec[0:], uint16(id))
		binary.BigEndian.PutUint16(rec[2:], 0x0001) // status flags
		binary.BigEndian.PutUint32(rec[4:], uint32(st.temp))
		binary.BigEndian.PutUint32(rec[8:], uint32(st.humid))
		binary.BigEndian.PutUint32(rec[12:], uint32(st.pressure))
		binary.BigEndian.PutUint32(rec[16:], uint32(st.co2))
		binary.BigEndian.PutUint16(rec[20:], st.battery)
		binary.BigEndian.PutUint16(rec[22:], 0) // reserved
		copy(rec[24:], st.uuid[:6])
		rec[30], rec[31] = 0, 0
		if cfg.NoiseBits > 0 {
			nb := cfg.NoiseBits
			if nb > 16 {
				nb = 16
			}
			adc := uint16(rng.Intn(1 << uint(nb)))
			binary.BigEndian.PutUint16(rec[30:], adc)
		}

		out := data[i*recordSize : (i+1)*recordSize]
		copy(out, rec)
		if cfg.SnapCodec != nil {
			snapToCodeword(cfg.SnapCodec, out, &split, scratch)
			if cfg.GlitchProb > 0 && rng.Float64() < cfg.GlitchProb {
				// Transient bit-flip glitch. With snapped baselines
				// it stays inside the baseline's correction ball: a
				// new distinct chunk but not a new basis.
				flipped := map[int]bool{}
				for len(flipped) < cfg.GlitchBits {
					bit := rng.Intn(recordSize * 8)
					if !flipped[bit] {
						flipped[bit] = true
						out[bit>>3] ^= 1 << (7 - uint(bit&7))
					}
				}
			}
		}
	}
	return NewTrace("synthetic-sensor", recordSize, data)
}

// snapToCodeword forces a chunk's syndrome to zero by flipping at
// most one bit (GD-aware quantisation). s and scratch are reusable
// storage: a Split, and a buffer of at least the chunk's capacity.
func snapToCodeword(c *gd.Codec, chunk []byte, s *gd.Split, scratch []byte) {
	if err := c.SplitChunkInto(chunk, s); err != nil {
		panic(err)
	}
	if s.Deviation == 0 {
		return
	}
	s.Deviation = 0
	merged, err := c.MergeChunk(*s, scratch[:0])
	if err != nil {
		panic(err)
	}
	copy(chunk, merged)
}
