package zipline

import (
	"fmt"

	"zipline/internal/controlplane"
	"zipline/internal/netsim"
	"zipline/internal/packet"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

// LinkSimConfig drives SimulateLink: a host streams payloads through
// an encoding switch whose dictionary is learned on the fly by a
// simulated control plane — the full in-network deployment of the
// paper, timing included.
type LinkSimConfig struct {
	// Codec selects the GD operating point (zero value = paper's).
	Codec Config
	// ReplayPPS paces the sender (default 150,000 packets/s).
	ReplayPPS float64
	// Payloads returns the i-th payload, or nil to stop. Payloads
	// shorter than the chunk size pass through uncompressed.
	Payloads func(i int) []byte
	// Seed fixes simulation jitter (default 1).
	Seed int64
	// TTL, if positive, ages dictionary entries out after this many
	// nanoseconds of inactivity.
	TTL int64
}

// LinkSimResult reports what the far end of the link received.
type LinkSimResult struct {
	// Sent and Received count frames.
	Sent, Received uint64
	// InputPayloadBytes is the offered payload volume; OutputPayloadBytes
	// what crossed the compressed hop.
	InputPayloadBytes  uint64
	OutputPayloadBytes uint64
	// RawFrames, UncompressedFrames, CompressedFrames classify the
	// received traffic (paper packet types 1, 2, 3).
	RawFrames, UncompressedFrames, CompressedFrames uint64
	// BasesLearned is the number of dictionary entries installed by
	// the control plane.
	BasesLearned uint64
	// FirstCompressedNs is the virtual time of the first type 3
	// arrival (-1 if none), FirstUncompressedNs of the first type 2.
	FirstUncompressedNs, FirstCompressedNs int64
}

// Ratio returns output payload bytes over input payload bytes.
func (r LinkSimResult) Ratio() float64 {
	if r.InputPayloadBytes == 0 {
		return 0
	}
	return float64(r.OutputPayloadBytes) / float64(r.InputPayloadBytes)
}

// SimulateLink runs the in-network compression scenario to
// completion and returns the receiver's view. Deterministic for a
// given seed and payload sequence.
func SimulateLink(cfg LinkSimConfig) (LinkSimResult, error) {
	var res LinkSimResult
	if cfg.Payloads == nil {
		return res, fmt.Errorf("zipline: LinkSimConfig.Payloads is required")
	}
	ccfg := cfg.Codec.withDefaults()
	if err := ccfg.validate(); err != nil {
		return res, err
	}
	if cfg.ReplayPPS == 0 {
		cfg.ReplayPPS = 150_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	sim := netsim.NewSim(cfg.Seed)
	prog, err := zswitch.New(zswitch.Config{
		M:      ccfg.M,
		IDBits: ccfg.IDBits,
		TTLNs:  cfg.TTL,
		Roles:  map[tofino.Port]zswitch.Role{0: zswitch.RoleEncode},
		PortMap: map[tofino.Port]tofino.Port{
			0: 1,
		},
	})
	if err != nil {
		return res, err
	}
	pl, err := tofino.Load(tofino.Config{}, prog)
	if err != nil {
		return res, err
	}
	sw := netsim.NewSwitch(sim, netsim.SwitchConfig{}, pl)
	aNIC, swA := netsim.NewLink(sim, netsim.LinkConfig{}, "sender", "sw:0")
	bNIC, swB := netsim.NewLink(sim, netsim.LinkConfig{}, "receiver", "sw:1")
	src := packet.MAC{0x02, 0, 0, 0, 0, 0x0A}
	dst := packet.MAC{0x02, 0, 0, 0, 0, 0x0B}
	a := netsim.NewHost(sim, netsim.HostConfig{Name: "sender", MAC: src, MaxPPS: cfg.ReplayPPS}, aNIC)
	b := netsim.NewHost(sim, netsim.HostConfig{Name: "receiver", MAC: dst}, bNIC)
	sw.AttachPort(0, swA)
	sw.AttachPort(1, swB)

	cpCfg := controlplane.Config{IDBits: ccfg.IDBits}
	if cfg.TTL > 0 {
		cpCfg.SweepIntervalNs = cfg.TTL / 2
	}
	ctl, err := controlplane.New(sim, cpCfg, pl, pl, prog.Codec().BasisBits())
	if err != nil {
		return res, err
	}
	ctl.Bind(sw)

	var sent uint64
	var inBytes uint64
	done := false
	a.Stream(0, 0, func(i uint64) []byte {
		p := cfg.Payloads(int(i))
		if p == nil {
			done = true
			return nil
		}
		sent++
		inBytes += uint64(len(p))
		return packet.Frame(packet.Header{Dst: dst, Src: src, EtherType: packet.EtherTypeRaw}, p)
	})
	if cpCfg.SweepIntervalNs > 0 {
		// The aging sweep re-arms itself forever, so the queue never
		// drains: advance one TTL at a time until the sender has
		// finished and the sweep is the only event left.
		for !done || sim.Pending() > 1 {
			sim.RunUntil(sim.Now() + cfg.TTL)
		}
	} else {
		sim.Run()
	}

	rx := b.Rx()
	res.Sent = sent
	res.Received = rx.Frames
	res.InputPayloadBytes = inBytes
	res.OutputPayloadBytes = rx.PayloadBytes
	res.RawFrames = rx.TypeFrames[packet.TypeRaw]
	res.UncompressedFrames = rx.TypeFrames[packet.TypeUncompressed]
	res.CompressedFrames = rx.TypeFrames[packet.TypeCompressed]
	res.BasesLearned = ctl.Stats().Learned
	res.FirstUncompressedNs = rx.FirstArrival[packet.TypeUncompressed]
	res.FirstCompressedNs = rx.FirstArrival[packet.TypeCompressed]
	return res, nil
}
