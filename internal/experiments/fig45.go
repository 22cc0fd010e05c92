package experiments

import (
	"fmt"

	"zipline/internal/netsim"
	"zipline/internal/packet"
	"zipline/internal/scenario"
	"zipline/internal/stats"
)

// Op selects what the switch does in the raw-performance experiments
// (paper Figure 4/5: "no op", "encode", "decode").
type Op int

// The three measured operations.
const (
	OpNoOp Op = iota
	OpEncode
	OpDecode
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpNoOp:
		return "No op"
	case OpEncode:
		return "Encode"
	case OpDecode:
		return "Decode"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// role is the scenario port role that performs the operation.
func (o Op) role() string {
	switch o {
	case OpEncode:
		return scenario.RoleEncode
	case OpDecode:
		return scenario.RoleDecode
	default:
		return scenario.RoleForward
	}
}

// Figure4Cell is one bar of paper Figure 4: throughput for one
// (operation, frame size) pair, across repeats.
type Figure4Cell struct {
	Op        Op
	FrameSize int
	// Gbps is received goodput in frame bytes (mean ± CI over
	// repeats), the left plot.
	Gbps *stats.Sample
	// Mpps is received packet rate, the right plot.
	Mpps *stats.Sample
}

// The paper's sweep axes and testbed constants.
var (
	allOps         = []Op{OpNoOp, OpEncode, OpDecode}
	fig4FrameSizes = []int{64, 1500, 9000}
)

const (
	// generatorPPS is the server traffic-generator ceiling, the
	// paper's observed bottleneck.
	generatorPPS = 7_000_000
	// probeGapNs spaces Figure 5's probes so one is in flight at a
	// time; probeFrameSize is their size.
	probeGapNs     = 10 * netsim.Microsecond
	probeFrameSize = 64
)

// Figure4Config parameterises the throughput experiment: every
// operation on 64, 1500 and 9000-byte frames.
type Figure4Config struct {
	// WindowNs is the measured traffic window per run (default
	// 20 ms; the paper transfers for 10 s, which only narrows the
	// confidence intervals).
	WindowNs netsim.Time
	// Repeats per cell (default 10, as in the paper).
	Repeats int
	// Seed bases the per-repeat seeds.
	Seed int64
}

func (c Figure4Config) withDefaults() Figure4Config {
	if c.WindowNs == 0 {
		c.WindowNs = 20 * netsim.Millisecond
	}
	if c.Repeats == 0 {
		c.Repeats = 10
	}
	if c.Seed == 0 {
		c.Seed = 23
	}
	return c
}

// Figure4 measures raw throughput with the switch performing each
// operation on each frame size.
func Figure4(cfg Figure4Config) ([]Figure4Cell, error) {
	cfg = cfg.withDefaults()
	var out []Figure4Cell
	for _, op := range allOps {
		for _, size := range fig4FrameSizes {
			cell := Figure4Cell{Op: op, FrameSize: size, Gbps: stats.New(), Mpps: stats.New()}
			for rep := 0; rep < cfg.Repeats; rep++ {
				gbps, mpps, err := fig4Run(cfg, op, size, cfg.Seed+int64(rep)*1001)
				if err != nil {
					return nil, fmt.Errorf("%v/%dB rep %d: %w", op, size, rep, err)
				}
				cell.Gbps.Add(gbps)
				cell.Mpps.Add(mpps)
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

func fig4Run(cfg Figure4Config, op Op, frameSize int, seed int64) (gbps, mpps float64, err error) {
	sc, err := buildFixed(fixture("fig4", seed, op.role(), generatorPPS))
	if err != nil {
		return 0, 0, err
	}
	frame, err := testFrame(sc, op, frameSize)
	if err != nil {
		return 0, 0, err
	}
	sc.Host("sender").Stream(0, cfg.WindowNs, func(i uint64) []byte { return frame })
	sc.Sim.Run()

	rx := sc.Host("sink").Rx()
	if rx.Frames == 0 {
		return 0, 0, fmt.Errorf("no traffic received")
	}
	// Measure over the actual span the receiver saw traffic; the
	// paper computes rate over its 10 s transfer the same way.
	span := rx.LastArrival - rx.FirstFrame
	if span <= 0 {
		return 0, 0, fmt.Errorf("degenerate window")
	}
	gbps = float64(rx.FrameBytes) * 8 / float64(span)
	mpps = float64(rx.Frames) * 1e3 / float64(span)
	return gbps, mpps, nil
}

// testFrame builds the frame the generator repeats: raw traffic for
// no-op and encode, a ZipLine type 2 frame for decode (decodable
// without dictionary state).
func testFrame(sc *scenario.Scenario, op Op, frameSize int) ([]byte, error) {
	hdr := packet.Header{Dst: sc.MAC("sink"), Src: sc.MAC("sender"), EtherType: packet.EtherTypeRaw}
	payloadLen := frameSize - packet.HeaderLen
	if payloadLen < 0 {
		return nil, fmt.Errorf("frame size %d below header", frameSize)
	}
	switch op {
	case OpDecode:
		codec := switchCodec(sc)
		f := packet.MustFormat(codec, 15, true)
		if payloadLen < f.Type2Len() {
			return nil, fmt.Errorf("frame size %d cannot carry a type 2 payload", frameSize)
		}
		chunk := make([]byte, codec.ChunkBytes())
		for i := range chunk {
			chunk[i] = byte(i*37 + 11)
		}
		s, err := codec.SplitChunk(chunk)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, 0, frameSize)
		hdr.EtherType = packet.EtherTypeUncompressed
		out := packet.AppendHeader(buf, hdr)
		out = f.AppendType2(out, s)
		for len(out) < frameSize {
			out = append(out, 0x5A)
		}
		return out, nil
	default:
		payload := make([]byte, payloadLen)
		for i := range payload {
			payload[i] = byte(i*29 + 3)
		}
		return packet.Frame(hdr, payload), nil
	}
}

// Figure5Cell is one bar of paper Figure 5: end-to-end RTT for one
// operation.
type Figure5Cell struct {
	Op Op
	// RTTMicros collects per-probe round-trip times in microseconds.
	RTTMicros *stats.Sample
}

// Figure5Config parameterises the latency experiment: 64-byte
// probes, one in flight at a time, through every operation.
type Figure5Config struct {
	// Probes per operation (default 1000).
	Probes int
	// Seed bases the run's jitter.
	Seed int64
}

func (c Figure5Config) withDefaults() Figure5Config {
	if c.Probes == 0 {
		c.Probes = 1000
	}
	if c.Seed == 0 {
		c.Seed = 31
	}
	return c
}

// Figure5 measures the RTT of the paper's self-loop setup ("one server
// sending packets to itself via the programmable switch"), the switch
// applying each operation.
func Figure5(cfg Figure5Config) ([]Figure5Cell, error) {
	cfg = cfg.withDefaults()
	var out []Figure5Cell
	for _, op := range allOps {
		spec := fixture("fig5", cfg.Seed, op.role(), 0)
		spec.Switches[0].Ports[0].Out = 0 // back to the sender
		sc, err := buildFixed(spec)
		if err != nil {
			return nil, err
		}
		frame, err := testFrame(sc, op, probeFrameSize)
		if err != nil {
			return nil, err
		}
		sender := sc.Host("sender")
		cell := Figure5Cell{Op: op, RTTMicros: stats.New()}
		// Self-clocking probes: each reply triggers the next send
		// after a quiet gap, so exactly one probe is in flight.
		var sentAt netsim.Time
		var probe func()
		probe = func() {
			sentAt = sc.Sim.Now()
			sender.Send(frame)
		}
		sender.OnReceive = func(f []byte, at netsim.Time) {
			cell.RTTMicros.Add(float64(at-sentAt) / 1e3)
			if cell.RTTMicros.N() < cfg.Probes {
				sc.Sim.After(probeGapNs, probe)
			}
		}
		sc.Sim.At(0, probe)
		sc.Sim.Run()
		if cell.RTTMicros.N() != cfg.Probes {
			return nil, fmt.Errorf("%v: %d of %d probes returned", op, cell.RTTMicros.N(), cfg.Probes)
		}
		out = append(out, cell)
	}
	return out, nil
}
