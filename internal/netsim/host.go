package netsim

import (
	"zipline/internal/packet"
)

// HostConfig models one testbed server.
type HostConfig struct {
	// Name for diagnostics.
	Name string
	// MAC is the host's address (used when building frames).
	MAC packet.MAC
	// MaxPPS caps the traffic generator. The paper's servers top out
	// around 7 Mpkt/s ("bottlenecked at around 7 Mpkt/s by the server
	// generating the traffic"); zero means unlimited (line rate).
	MaxPPS float64
}

// Host latency parameters, calibrated so that the no-op RTT lands in
// the single-digit-microsecond band of paper Figure 5.
const (
	// hostTxLatencyNs is the fixed host-side cost from the
	// application's send to the first bit entering the NIC (driver +
	// PCIe + NIC pipeline); hostRxLatencyNs the symmetric receive-side
	// cost.
	hostTxLatencyNs Time = 1500
	hostRxLatencyNs Time = 1500
	// hostJitterFrac adds uniform ±fraction noise to both (measurement
	// noise).
	hostJitterFrac = 0.05
)

// RxStats aggregates what a host has received, bucketed the way the
// compression experiment needs (payload bytes per ZipLine packet
// type).
type RxStats struct {
	Frames       uint64
	FrameBytes   uint64
	PayloadBytes uint64
	// ByType buckets payload bytes and frame counts by packet type.
	TypeFrames  [4]uint64 // index packet.Type (1..3); 0 unused
	TypePayload [4]uint64
	// FirstArrival[t] is the arrival time of the first frame of type
	// t, or -1 — the learning-delay experiment measures
	// FirstArrival[3] − FirstArrival[2].
	FirstArrival [4]Time
	// FirstFrame is the arrival time of the first frame of any kind
	// (-1 before any traffic); LastArrival the most recent.
	FirstFrame  Time
	LastArrival Time
}

// Host is a testbed server: traffic generator and sink.
type Host struct {
	sim *Sim
	cfg HostConfig
	nic *Endpoint

	// OnReceive, when set, observes every delivered frame.
	OnReceive func(frame []byte, at Time)

	rx RxStats
}

// NewHost builds a host and attaches it to its NIC endpoint.
func NewHost(sim *Sim, cfg HostConfig, nic *Endpoint) *Host {
	h := &Host{sim: sim, cfg: cfg, nic: nic}
	for i := range h.rx.FirstArrival {
		h.rx.FirstArrival[i] = -1
	}
	h.rx.FirstFrame = -1
	nic.SetReceiver(h.receive)
	return h
}

// Config returns the host configuration.
func (h *Host) Config() HostConfig { return h.cfg }

// Rx returns a snapshot of receive statistics.
func (h *Host) Rx() RxStats { return h.rx }

func (h *Host) receive(frame []byte, at Time) {
	// Host-side receive cost: the frame is visible to the
	// application a little after the wire delivered it.
	delay := h.sim.Jitter(hostRxLatencyNs, hostJitterFrac)
	h.sim.After(delay, func() {
		now := h.sim.Now()
		h.rx.Frames++
		h.rx.FrameBytes += uint64(len(frame))
		if h.rx.FirstFrame < 0 {
			h.rx.FirstFrame = now
		}
		h.rx.LastArrival = now
		if hdr, payload, err := packet.ParseHeader(frame); err == nil {
			h.rx.PayloadBytes += uint64(len(payload))
			t := hdr.Type()
			h.rx.TypeFrames[t]++
			h.rx.TypePayload[t] += uint64(len(payload))
			if h.rx.FirstArrival[t] < 0 {
				h.rx.FirstArrival[t] = now
			}
		}
		if h.OnReceive != nil {
			h.OnReceive(frame, now)
		}
	})
}

// Send transmits one frame, paying the host TX cost first.
func (h *Host) Send(frame []byte) {
	delay := h.sim.Jitter(hostTxLatencyNs, hostJitterFrac)
	h.sim.After(delay, func() {
		h.nic.Send(frame)
	})
}

// Stream generates frames back to back from start until stop (or
// until next returns nil), respecting the generator's MaxPPS ceiling
// and the NIC's line rate. next is called with the frame index and
// must return a fresh frame each time.
func (h *Host) Stream(start, stop Time, next func(i uint64) []byte) {
	h.StreamPaced(start, stop, h.cfg.MaxPPS, next)
}

// StreamPaced is Stream with an explicit generator rate, letting one
// host carry several flows at different rates. pps == 0 means no
// generator ceiling (the NIC's line rate governs).
func (h *Host) StreamPaced(start, stop Time, pps float64, next func(i uint64) []byte) {
	var interval Time
	if pps > 0 {
		interval = Time(float64(Second) / pps)
	}
	var i uint64
	var tick func()
	tick = func() {
		if stop > 0 && h.sim.Now() >= stop {
			return
		}
		frame := next(i)
		if frame == nil {
			return
		}
		i++
		h.nic.Send(frame)
		// Next departure: generator pacing or wire availability,
		// whichever is later.
		nextAt := h.sim.Now() + interval
		if wire := h.sim.Now() + h.nic.QueueDelay(); wire > nextAt {
			nextAt = wire
		}
		if nextAt == h.sim.Now() {
			nextAt++ // guarantee progress even with no pacing
		}
		h.sim.At(nextAt, tick)
	}
	h.sim.At(start, func() {
		// The first frame pays the host TX cost; subsequent frames
		// stream from the NIC without re-paying it (the generator
		// keeps the NIC fed, as raw_ethernet_bw does).
		h.sim.After(h.sim.Jitter(hostTxLatencyNs, hostJitterFrac), tick)
	})
}

// StreamTimed replays frames at recorded departure offsets — the
// trace-replay path, where inter-frame gaps come from a capture file
// instead of a packets-per-second pacer. offsetAt returns frame i's
// recorded offset from the stream start (offsets must be
// non-decreasing; ok=false ends the stream); next builds frame i (nil
// also ends the stream) and is called in the same event that
// transmits it, so generator-side accounting always matches what went
// on the wire, exactly as in StreamPaced. A frame whose recorded
// departure has already passed — or whose NIC is still serialising
// the previous frame — goes out as soon as the wire frees up, so a
// trace captured faster than the link plays back at line rate. stop
// windows the flow like StreamPaced (0 = unbounded): no frame departs
// at or after it.
func (h *Host) StreamTimed(start, stop Time, offsetAt func(i uint64) (Time, bool), next func(i uint64) []byte) {
	var i uint64
	var step func()
	step = func() {
		off, ok := offsetAt(i)
		if !ok {
			return
		}
		sendAt := start + off
		if now := h.sim.Now(); sendAt < now {
			sendAt = now
		}
		if wire := h.sim.Now() + h.nic.QueueDelay(); wire > sendAt {
			sendAt = wire
		}
		h.sim.At(sendAt, func() {
			if stop > 0 && h.sim.Now() >= stop {
				return
			}
			frame := next(i)
			if frame == nil {
				return
			}
			i++
			h.nic.Send(frame)
			step()
		})
	}
	h.sim.At(start, func() {
		// Like StreamPaced, only the first frame pays the host TX cost.
		h.sim.After(h.sim.Jitter(hostTxLatencyNs, hostJitterFrac), step)
	})
}
