package netsim

import "fmt"

// Ethernet wire overhead per frame beyond the frame bytes themselves:
// 7 B preamble + 1 B SFD + 12 B inter-frame gap + 4 B FCS.
const WireOverheadBytes = 24

// Impairments degrades a link the way a congested or faulty network
// segment would. All probabilities are per transmitted frame and all
// draws come from the simulation's seeded random source, so impaired
// runs stay reproducible bit for bit. The zero value is the ideal
// (testbed) link the paper measures on.
type Impairments struct {
	// LossProb drops a frame after serialization, i.i.d.
	LossProb float64
	// DupProb delivers a second copy of a frame, 2 µs after the
	// original (a retransmitting segment or an L2 loop).
	DupProb float64
	// ReorderProb holds a frame back by ReorderDelayNs so later frames
	// overtake it.
	ReorderProb float64
	// ReorderDelayNs is the hold-back applied to reordered frames
	// (default 5 µs).
	ReorderDelayNs Time
	// ExtraLatencyNs adds a per-frame latency drawn uniformly from
	// [0, ExtraLatencyNs] — standing queueing on an overloaded path.
	ExtraLatencyNs Time
}

// dupDelayNs spaces a duplicate copy from its original.
const dupDelayNs = 2 * Microsecond

// DefaultReorderDelayNs applies when ReorderProb is positive but the
// delay is left zero.
const DefaultReorderDelayNs = 5 * Microsecond

func (im Impairments) withDefaults() Impairments {
	if im.ReorderProb > 0 && im.ReorderDelayNs == 0 {
		im.ReorderDelayNs = DefaultReorderDelayNs
	}
	return im
}

// active reports whether any impairment is configured.
func (im Impairments) active() bool {
	return im.LossProb > 0 || im.DupProb > 0 || im.ReorderProb > 0 || im.ExtraLatencyNs > 0
}

// LinkStats counts what an endpoint's impairments did to its traffic.
type LinkStats struct {
	// Lost frames were serialized but never delivered.
	Lost uint64
	// Duplicated frames were delivered twice.
	Duplicated uint64
	// Reordered frames were held back past later traffic.
	Reordered uint64
	// DownDrops counts frames offered while the link was
	// administratively down (a fault-schedule flap).
	DownDrops uint64
}

// LinkConfig sizes one full-duplex link.
type LinkConfig struct {
	// RateBps is the line rate in bits per second (default 100 Gbit/s,
	// the testbed's links).
	RateBps int64
	// PropagationNs is the one-way propagation delay (default 5 ns,
	// about a metre of fibre).
	PropagationNs Time
	// Impair degrades frames in both directions; zero means the
	// ideal loss-free link of the paper's testbed.
	Impair Impairments
}

// Default link parameters (the paper's testbed).
const (
	DefaultRateBps       = 100_000_000_000 // 100 Gbit/s
	DefaultPropagationNs = 5
)

func (c LinkConfig) withDefaults() LinkConfig {
	if c.RateBps == 0 {
		c.RateBps = DefaultRateBps
	}
	if c.PropagationNs == 0 {
		c.PropagationNs = DefaultPropagationNs
	}
	c.Impair = c.Impair.withDefaults()
	return c
}

// Endpoint is one side of a link: frames sent here appear at the
// other side's receiver after serialization and propagation. An
// Endpoint models the egress queue of a port: back-to-back sends
// queue behind one another at line rate (drop-free, as the testbed's
// flow control keeps the paper's measurements loss-free).
type Endpoint struct {
	sim  *Sim
	cfg  LinkConfig
	name string

	peer *Endpoint
	recv func(frame []byte, at Time)

	busyUntil Time
	down      bool

	// TxFrames and TxBytes count transmitted traffic (frame bytes,
	// excluding wire overhead — the quantity Figure 4 reports).
	TxFrames uint64
	TxBytes  uint64

	// Stats counts what this endpoint's impairments did to the frames
	// it transmitted.
	Stats LinkStats
}

// NewLink wires two endpoints together and returns them. Receivers
// are attached afterwards with SetReceiver.
func NewLink(sim *Sim, cfg LinkConfig, nameA, nameB string) (*Endpoint, *Endpoint) {
	cfg = cfg.withDefaults()
	a := &Endpoint{sim: sim, cfg: cfg, name: nameA}
	b := &Endpoint{sim: sim, cfg: cfg, name: nameB}
	a.peer, b.peer = b, a
	return a, b
}

// SetReceiver registers the delivery callback invoked when a frame
// fully arrives at this endpoint.
func (e *Endpoint) SetReceiver(fn func(frame []byte, at Time)) { e.recv = fn }

// SetDown flaps this transmit direction: while down, offered frames
// are dropped (carrier loss). Fault-schedule API; flap both endpoints
// to take a full-duplex link down.
func (e *Endpoint) SetDown(down bool) { e.down = down }

// Down reports whether this transmit direction is administratively
// down.
func (e *Endpoint) Down() bool { return e.down }

// SerializationDelay returns how long a frame of n bytes occupies the
// wire, including overhead.
func (e *Endpoint) SerializationDelay(n int) Time {
	bits := int64(n+WireOverheadBytes) * 8
	return Time(bits * Second / e.cfg.RateBps)
}

// Send queues a frame for transmission towards the peer endpoint. The
// frame is owned by the simulator after the call. It returns the time
// transmission will finish (serialization complete at the sender).
func (e *Endpoint) Send(frame []byte) Time {
	if e.peer == nil {
		panic(fmt.Sprintf("netsim: endpoint %s is not wired", e.name))
	}
	if e.down {
		e.Stats.DownDrops++
		return e.sim.Now() // no carrier: the frame never hits the wire
	}
	start := e.sim.Now()
	if e.busyUntil > start {
		start = e.busyUntil // queue behind the frame on the wire
	}
	done := start + e.SerializationDelay(len(frame))
	e.busyUntil = done
	e.TxFrames++
	e.TxBytes += uint64(len(frame))

	arrive := done + e.cfg.PropagationNs
	if im := e.cfg.Impair; im.active() {
		rng := e.sim.Rand()
		if im.LossProb > 0 && rng.Float64() < im.LossProb {
			e.Stats.Lost++
			return done // serialized, then lost on the wire
		}
		if im.ExtraLatencyNs > 0 {
			arrive += Time(rng.Int63n(int64(im.ExtraLatencyNs) + 1))
		}
		if im.ReorderProb > 0 && rng.Float64() < im.ReorderProb {
			e.Stats.Reordered++
			arrive += im.ReorderDelayNs
		}
		if im.DupProb > 0 && rng.Float64() < im.DupProb {
			e.Stats.Duplicated++
			e.deliver(frame, arrive+dupDelayNs)
		}
	}
	e.deliver(frame, arrive)
	return done
}

// deliver schedules the frame's arrival at the peer. A peer that is
// down at arrival time loses the frame — it was in flight when the
// flap started.
func (e *Endpoint) deliver(frame []byte, arrive Time) {
	peer := e.peer
	e.sim.At(arrive, func() {
		if peer.down {
			peer.Stats.DownDrops++
			return
		}
		if peer.recv != nil {
			peer.recv(frame, arrive)
		}
	})
}

// QueueDelay reports how long a frame sent now would wait before its
// first bit hits the wire.
func (e *Endpoint) QueueDelay() Time {
	if e.busyUntil > e.sim.Now() {
		return e.busyUntil - e.sim.Now()
	}
	return 0
}
