package netsim

import (
	"fmt"
	"math/rand"
)

// FaultSpec is the JSON-declarable fault schedule of one simulation:
// timed switch crash/restart events, link down/up flaps, and a loss
// probability on every switch↔controller control channel. The zero
// value (and a nil pointer) is the fault-free world; Armed reports
// whether any fault source is active, which decides whether the
// control plane's one install protocol runs over a lossless channel
// or a lossy one with acks and retransmission — so a spec with an
// empty FaultSpec draws and schedules nothing a spec without one
// would not, and reports the identical bytes.
type FaultSpec struct {
	// ControlLossProb drops control-channel messages (digests, table
	// writes, acks, restart notifications) i.i.d. per message.
	ControlLossProb float64 `json:"control_loss_prob,omitempty"`
	// RetransmitTimeoutNs is the base retransmit timeout for reliable
	// control messages (default 2 ms); attempt k waits
	// min(base<<k, 8×base) — deterministic capped exponential backoff,
	// no jitter, so fault runs stay byte-stable per seed.
	RetransmitTimeoutNs int64 `json:"retransmit_timeout_ns,omitempty"`
	// MaxRetries caps retransmissions of digests and table writes
	// (default 6); an install abandoned after the cap is reaped and
	// re-learned from a later digest. Restart notifications retry
	// without cap (a switch reconnects forever).
	MaxRetries int `json:"max_retries,omitempty"`
	// Restarts schedules switch crash/restart events.
	Restarts []RestartSpec `json:"restarts,omitempty"`
	// LinkFlaps schedules link down/up events.
	LinkFlaps []FlapSpec `json:"link_flaps,omitempty"`
}

// RestartSpec crashes one switch at AtNs: its dataplane tables and
// epoch-stamped state are lost instantly, frames arriving while down
// are dropped, and the switch comes back DownNs later with empty
// tables and a bumped epoch. A switch running an encoder or decoder
// role re-enables its ports only after the control plane has
// reconciled (quarantine acked), preserving the decoders-first
// invariant across the reboot.
type RestartSpec struct {
	// Switch names the switch (scenario switch name).
	Switch string `json:"switch"`
	// AtNs is the crash time.
	AtNs int64 `json:"at_ns"`
	// DownNs is the reboot duration (default 5 ms).
	DownNs int64 `json:"down_ns,omitempty"`
}

// FlapSpec takes one link down at AtNs and back up DownNs later;
// frames sent in the window are lost in both directions.
type FlapSpec struct {
	// Link indexes the scenario's Links list.
	Link int `json:"link"`
	// AtNs is the down time.
	AtNs int64 `json:"at_ns"`
	// DownNs is the outage duration (default 1 ms).
	DownNs int64 `json:"down_ns,omitempty"`
}

// Default fault-schedule parameters.
const (
	DefaultRetransmitTimeoutNs = 2 * Millisecond
	DefaultMaxRetries          = 6
	DefaultRestartDownNs       = 5 * Millisecond
	DefaultFlapDownNs          = 1 * Millisecond
	// BackoffCap bounds the exponential backoff multiplier: attempt k
	// waits min(base<<k, BackoffCap×base).
	BackoffCap = 8
)

// Armed reports whether any fault source is active. An unarmed spec
// must cost no event and no random draw, so the no-fault event
// schedule — and therefore every report byte — is unchanged.
func (f *FaultSpec) Armed() bool {
	if f == nil {
		return false
	}
	return f.ControlLossProb > 0 || len(f.Restarts) > 0 || len(f.LinkFlaps) > 0
}

// WithDefaults fills the schedule-level defaults.
func (f FaultSpec) WithDefaults() FaultSpec {
	if f.RetransmitTimeoutNs == 0 {
		f.RetransmitTimeoutNs = DefaultRetransmitTimeoutNs
	}
	if f.MaxRetries == 0 {
		f.MaxRetries = DefaultMaxRetries
	}
	for i := range f.Restarts {
		if f.Restarts[i].DownNs == 0 {
			f.Restarts[i].DownNs = DefaultRestartDownNs
		}
	}
	for i := range f.LinkFlaps {
		if f.LinkFlaps[i].DownNs == 0 {
			f.LinkFlaps[i].DownNs = DefaultFlapDownNs
		}
	}
	return f
}

// Validate checks the schedule against the topology: switchOK reports
// whether a switch name exists, numLinks bounds flap indices.
func (f *FaultSpec) Validate(switchOK func(string) bool, numLinks int) error {
	if f == nil {
		return nil
	}
	if f.ControlLossProb < 0 || f.ControlLossProb >= 1 {
		return fmt.Errorf("faults: control_loss_prob %v out of [0,1)", f.ControlLossProb)
	}
	if f.RetransmitTimeoutNs < 0 || f.MaxRetries < 0 {
		return fmt.Errorf("faults: negative retransmit timeout or retry cap")
	}
	for i, r := range f.Restarts {
		if !switchOK(r.Switch) {
			return fmt.Errorf("faults: restart %d: unknown switch %q", i, r.Switch)
		}
		if r.AtNs < 0 || r.DownNs < 0 {
			return fmt.Errorf("faults: restart %d: negative time", i)
		}
		for j, prev := range f.Restarts[:i] {
			if prev.Switch != r.Switch {
				continue
			}
			pd, rd := prev.DownNs, r.DownNs
			if pd == 0 {
				pd = int64(DefaultRestartDownNs)
			}
			if rd == 0 {
				rd = int64(DefaultRestartDownNs)
			}
			if r.AtNs < prev.AtNs+pd && prev.AtNs < r.AtNs+rd {
				return fmt.Errorf("faults: restarts %d and %d overlap on switch %q", j, i, r.Switch)
			}
		}
	}
	for i, fl := range f.LinkFlaps {
		if fl.Link < 0 || fl.Link >= numLinks {
			return fmt.Errorf("faults: flap %d: link index %d out of range (topology has %d links)", i, fl.Link, numLinks)
		}
		if fl.AtNs < 0 || fl.DownNs < 0 {
			return fmt.Errorf("faults: flap %d: negative time", i)
		}
	}
	return nil
}

// Faults is the armed fault injector: the seeded random source every
// control-channel loss draw comes from, kept separate from the
// simulation's jitter source so arming faults never perturbs the
// draws — and therefore the timing — of the fault-free schedule.
// A nil *Faults never drops anything.
type Faults struct {
	rng *rand.Rand

	// MsgsLost counts control-channel messages eaten by loss draws.
	MsgsLost uint64
}

// NewFaults builds the injector; derive seed deterministically from
// the scenario seed so fault runs stay reproducible.
func NewFaults(seed int64) *Faults {
	return &Faults{rng: rand.New(rand.NewSource(seed))}
}

// Drop draws one loss decision for a control-channel message.
func (f *Faults) Drop(p float64) bool {
	if f == nil || p <= 0 {
		return false
	}
	if f.rng.Float64() < p {
		f.MsgsLost++
		return true
	}
	return false
}

// Backoff returns attempt k's retransmit delay under the capped
// exponential schedule (k counts from 0). Deterministic: retransmit
// timers draw no jitter, so they cannot perturb the event schedule
// beyond the faults that armed them.
func Backoff(base Time, attempt int) Time {
	d := base
	for i := 0; i < attempt; i++ {
		d <<= 1
		if d >= base*BackoffCap {
			return base * BackoffCap
		}
	}
	return d
}
