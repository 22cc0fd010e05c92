package netsim

import (
	"fmt"

	"zipline/internal/tofino"
)

// SwitchConfig models the programmable switch's timing.
type SwitchConfig struct {
	// Name for diagnostics.
	Name string
	// PipelineLatencyNs is the constant port-to-port traversal time.
	// On Tofino this is fixed by the stage count regardless of the
	// loaded program — the property that makes encode and decode
	// indistinguishable from no-op in Figures 4 and 5. Default
	// 600 ns (typical published Tofino cut-through figure).
	PipelineLatencyNs Time
}

// DefaultPipelineLatencyNs is the default switch traversal latency.
const DefaultPipelineLatencyNs = 600

// pipelineJitterFrac adds uniform noise to the traversal time.
const pipelineJitterFrac = 0.02

func (c SwitchConfig) withDefaults() SwitchConfig {
	if c.PipelineLatencyNs == 0 {
		c.PipelineLatencyNs = DefaultPipelineLatencyNs
	}
	return c
}

// Switch is a simulated programmable switch: front-panel ports wired
// to link endpoints, a loaded tofino pipeline, and a digest tap for
// the control plane.
type Switch struct {
	sim   *Sim
	cfg   SwitchConfig
	pl    *tofino.Pipeline
	ports map[tofino.Port]*Endpoint

	// emits is the reused scratch for Pipeline.ProcessAppend; arena
	// is the current frame block emitted frames are copied into (see
	// retain).
	emits []tofino.Emit
	arena []byte

	// down gates the dataplane: a crashed (or rebooting, or
	// control-plane-unreconciled) switch drops every arriving frame.
	down bool

	// DownDrops counts frames that arrived while the switch was down.
	DownDrops uint64

	// OnDigest, when set, receives digests drained after each
	// processed packet. The control plane applies its own delivery
	// latency; the tap itself is immediate. The digests are views the
	// next packet reuses: copy what is kept before the callback returns.
	OnDigest func(ds []tofino.Digest)
}

// NewSwitch wraps a loaded pipeline.
func NewSwitch(sim *Sim, cfg SwitchConfig, pl *tofino.Pipeline) *Switch {
	return &Switch{sim: sim, cfg: cfg.withDefaults(), pl: pl, ports: make(map[tofino.Port]*Endpoint)}
}

// Pipeline exposes the loaded pipeline (control-plane access).
func (sw *Switch) Pipeline() *tofino.Pipeline { return sw.pl }

// SetDown crashes or revives the dataplane. While down, frames
// arriving on any port are dropped; frames already inside the
// pipeline's traversal window are dropped at completion (the crash
// loses them too). Fault-schedule API.
func (sw *Switch) SetDown(down bool) { sw.down = down }

// Down reports whether the dataplane is down.
func (sw *Switch) Down() bool { return sw.down }

// AttachPort wires a link endpoint to a front-panel port.
func (sw *Switch) AttachPort(p tofino.Port, e *Endpoint) {
	if int(p) < 0 || int(p) >= sw.pl.Config().Ports {
		panic(fmt.Sprintf("netsim: switch %s has no port %d", sw.cfg.Name, p))
	}
	if _, dup := sw.ports[p]; dup {
		panic(fmt.Sprintf("netsim: switch %s port %d already attached", sw.cfg.Name, p))
	}
	sw.ports[p] = e
	e.SetReceiver(func(frame []byte, at Time) { sw.ingress(p, frame) })
}

func (sw *Switch) ingress(p tofino.Port, frame []byte) {
	if sw.down {
		sw.DownDrops++
		return
	}
	// Constant traversal latency, independent of what the program
	// does with the packet.
	d := sw.sim.Jitter(sw.cfg.PipelineLatencyNs, pipelineJitterFrac)
	sw.sim.After(d, func() {
		if sw.down {
			// Crashed mid-traversal: the packet is lost with the
			// pipeline state.
			sw.DownDrops++
			return
		}
		sw.emits = sw.pl.ProcessAppend(sw.sim.Now(), frame, p, sw.emits[:0])
		for _, e := range sw.emits {
			out, ok := sw.ports[e.Port]
			if !ok {
				continue // unattached port: black hole
			}
			if sameSlice(e.Frame, frame) {
				// Forwarded unchanged: the input frame already has
				// link-delivery lifetime, pass it straight through.
				out.Send(e.Frame)
				continue
			}
			out.Send(sw.retain(e.Frame))
		}
		if sw.OnDigest != nil && sw.pl.PendingDigests() > 0 {
			sw.OnDigest(sw.pl.DrainDigests())
		}
	})
}

// arenaBlockSize sizes the switch's frame blocks: big enough to
// amortise thousands of MTU-scale frames per allocation, small enough
// that retired blocks return to the GC as their in-flight frames die.
const arenaBlockSize = 64 << 10

// retain copies a frame out of pipeline scratch (valid only until the
// next ProcessAppend) into the switch's current frame block, giving
// it the lifetime link delivery needs. One allocation covers
// thousands of frames instead of one each; a full block is dropped
// and stays alive only while frames inside it are still in flight.
func (sw *Switch) retain(frame []byte) []byte {
	if len(frame) > arenaBlockSize {
		return append([]byte(nil), frame...)
	}
	if len(sw.arena)+len(frame) > cap(sw.arena) {
		sw.arena = make([]byte, 0, arenaBlockSize)
	}
	base := len(sw.arena)
	sw.arena = append(sw.arena, frame...)
	return sw.arena[base:len(sw.arena):len(sw.arena)]
}

// sameSlice reports whether a and b are the identical slice (same
// base pointer and length).
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}
