package controlplane

import (
	"fmt"
	"sort"

	"zipline/internal/netsim"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

// This file is the control channel and the restart reconciliation
// protocol built on it. The controller speaks one protocol over two
// channels: deliver and write carry its messages either losslessly
// (one latency draw, one event — the batched BfRt write of the
// paper's testbed) or, when Config.Faults arms loss, reliably (acks,
// deterministic timeout + capped exponential backoff retransmit,
// capped retries with abandonment). The lossy channel's draws and
// events happen only when armed.
//
// The safety argument for the zero-stranded-packets guarantee:
//
//   - A crash clears a switch's tables and bumps its epoch instantly;
//     its ports stay down through the reboot, so in-flight compressed
//     frames die as crash loss, never as decode misses.
//   - A restarted decoder's ports stay down until every encoder has
//     acknowledged quarantine (bypass on + dictionary cleared) plus a
//     drain margin longer than any dataplane flight time. From that
//     point no encoder can emit a compressed frame.
//   - Install chains are tagged with the controller generation (gen),
//     bumped on every decoder restart. A write from a stale chain is
//     discarded at delivery, closing the race where a pre-crash
//     encoder install lands after the quarantine wipe.
//   - Encoder mappings come back only after the restarted decoder has
//     acknowledged its full ID→basis reinstall — decoders-first,
//     network-wide, across any fault schedule.

// retryForever marks correctness-critical messages (restart
// notifications, quarantine and reinstall writes) that retransmit
// without cap.
const retryForever = -1

// drainMarginNs is how long reconciliation waits after the last
// quarantine ack before re-enabling a restarted decoder's ports:
// longer than any link+pipeline flight time, so compressed frames
// emitted before the quarantine landed have drained.
const drainMarginNs = 100 * netsim.Microsecond

// relMsg is one reliable control message. apply runs exactly once, at
// the first successful delivery; resolve runs exactly once, with true
// after an acknowledged delivery or false on abandonment.
type relMsg struct {
	// target is the switch whose liveness gates delivery; nil for
	// messages terminating at the (always-up) controller.
	target  *netsim.Switch
	latency netsim.Time
	// maxRetries caps retransmissions (retryForever = none).
	maxRetries int
	attempt    int
	applied    bool
	apply      func()
	resolve    func(acked bool)
}

// send attempts one delivery of m, drawing the in-flight and ack loss
// decisions from the fault injector.
func (c *Controller) send(m *relMsg) {
	if c.cfg.Faults.Drop(c.cfg.ControlLossProb) {
		c.timeout(m) // lost in flight; the sender times out
		return
	}
	c.sim.After(c.sim.Jitter(m.latency, jitterFrac), func() {
		if m.target != nil && m.target.Down() {
			c.timeout(m) // delivered into a dead switch: no ack
			return
		}
		if !m.applied {
			m.applied = true
			m.apply()
		}
		if c.cfg.Faults.Drop(c.cfg.ControlLossProb) {
			c.timeout(m) // applied, but the ack was lost
			return
		}
		if m.resolve != nil {
			m.resolve(true)
		}
	})
}

// timeout schedules m's retransmission under the capped exponential
// backoff, or abandons it once the retry cap is exhausted.
func (c *Controller) timeout(m *relMsg) {
	if m.maxRetries >= 0 && m.attempt >= m.maxRetries {
		c.stats.Abandoned++
		if m.resolve != nil {
			m.resolve(false)
		}
		return
	}
	wait := netsim.Backoff(c.cfg.RetransmitTimeoutNs, m.attempt)
	m.attempt++
	c.sim.After(wait, func() {
		c.stats.Retransmits++
		c.send(m)
	})
}

// deliver carries one controller-bound message (a digest, a restart
// notification): apply runs at the controller after the channel
// latency, retransmitted up to maxRetries times on a lossy channel.
func (c *Controller) deliver(latency netsim.Time, maxRetries int, apply func()) {
	if !c.armed() {
		c.sim.After(c.sim.Jitter(latency, jitterFrac), apply)
		return
	}
	c.send(&relMsg{latency: latency, maxRetries: maxRetries, apply: apply})
}

// write carries one table write to a tier of pipelines: apply runs
// once per target, in slice order, and done runs once afterwards,
// reporting whether every target acknowledged (at once for an empty
// tier). The lossless channel programs the whole tier in one batched
// BfRt write; the lossy one sends each target its own reliable
// message, whose delivery observes the hosting switch's crash state
// (an unregistered pipeline never appears down).
func (c *Controller) write(targets []*tofino.Pipeline, maxRetries int, apply func(*tofino.Pipeline), done func(acked bool)) {
	if len(targets) == 0 {
		done(true)
		return
	}
	if !c.armed() {
		c.sim.After(c.sim.Jitter(c.cfg.WriteLatencyNs, jitterFrac), func() {
			for _, pl := range targets {
				apply(pl)
			}
			done(true)
		})
		return
	}
	remaining, allAcked := len(targets), true
	for _, pl := range targets {
		pl := pl
		c.send(&relMsg{
			target:     c.switches[pl],
			latency:    c.cfg.WriteLatencyNs,
			maxRetries: maxRetries,
			apply:      func() { apply(pl) },
			resolve: func(acked bool) {
				allAcked = allAcked && acked
				if remaining--; remaining == 0 {
					done(allAcked)
				}
			},
		})
	}
}

// SwitchRestarted notifies the controller that a managed switch
// crashed at downSince (losing its tables and bumping its epoch) and
// will finish rebooting at upAt. The crash is detected when the BfRt
// session breaks, so reconciliation overlaps the reboot rather than
// waiting for it. enable, when non-nil, is invoked when the switch's
// dataplane may come back up: no earlier than upAt, and for a decoder
// no earlier than quarantine + drain. The notification itself crosses
// the lossy control channel and retries without cap.
func (c *Controller) SwitchRestarted(pl *tofino.Pipeline, downSince, upAt netsim.Time, enable func()) {
	c.deliver(c.cfg.DigestLatencyNs, retryForever, func() { c.resync(pl, downSince, upAt, enable) })
}

// resync reconciles a restarted switch. Encoders-only restarts are
// benign (an empty dictionary just stops compressing) and only need
// their mappings repopulated; a restarted decoder triggers the full
// quarantine protocol.
func (c *Controller) resync(pl *tofino.Pipeline, downSince, upAt netsim.Time, enable func()) {
	c.stats.Resyncs++
	if !c.IsDecoder(pl) {
		if enable != nil {
			enable()
		}
		c.write([]*tofino.Pipeline{pl}, retryForever, c.installAllBasisToID,
			func(bool) { c.recordRecovery(downSince) })
		return
	}

	// Any install chain begun before this point could land an encoder
	// mapping the restarted decoder lacks; stale it.
	c.gen++

	// Phase A — quarantine: every *other* encoder goes into bypass
	// with a wiped dictionary (the restarted switch's own encoder
	// side is already empty). Refcounted, so overlapping resyncs keep
	// bypass up until the last one finishes.
	quarantine := make([]*tofino.Pipeline, 0, len(c.encs))
	for _, enc := range c.encs {
		if enc != pl {
			quarantine = append(quarantine, enc)
			c.bypassHolds[enc]++
		}
	}
	c.write(quarantine, retryForever, func(enc *tofino.Pipeline) {
		if err := zswitch.SetBypass(enc, true); err != nil {
			panic(fmt.Sprintf("controlplane: quarantine: %v", err))
		}
		if t, _ := zswitch.Tables(enc); t != nil {
			t.Clear()
		}
	}, func(bool) {
		// Ports open at the later of reboot completion and
		// quarantine + drain — when quarantine finishes inside the
		// reboot window (the common case), recovery costs no downtime
		// beyond the reboot itself.
		delay := upAt - c.sim.Now()
		if delay < drainMarginNs {
			delay = drainMarginNs
		}
		c.sim.After(delay, func() {
			if enable != nil {
				enable()
			}
			c.reinstallDecoder(pl, quarantine, downSince)
		})
	})
}

// reinstallDecoder is phases B and C of decoder reconciliation: the
// restarted decoder gets its full ID→basis dictionary back first;
// only after it acknowledges do the quarantined encoders get their
// mappings (and their traffic) back.
func (c *Controller) reinstallDecoder(pl *tofino.Pipeline, quarantined []*tofino.Pipeline, downSince netsim.Time) {
	c.write([]*tofino.Pipeline{pl}, retryForever, c.installAllIDToBasis, func(bool) {
		c.write(quarantined, retryForever, func(enc *tofino.Pipeline) {
			c.installAllBasisToID(enc)
			c.bypassHolds[enc]--
			if c.bypassHolds[enc] == 0 {
				if err := zswitch.SetBypass(enc, false); err != nil {
					panic(fmt.Sprintf("controlplane: bypass release: %v", err))
				}
			}
		}, func(bool) { c.recordRecovery(downSince) })
	})
}

// sortedKeys snapshots the live records' keys in deterministic order.
func (c *Controller) sortedKeys() []string {
	keys := make([]string, 0, c.mapped)
	for k, st := range c.bases {
		if st.live {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// installAllIDToBasis repopulates a decoder's dictionary from the
// controller's cache — one batched reliable write's worth of entries.
func (c *Controller) installAllIDToBasis(pl *tofino.Pipeline) {
	for _, k := range c.sortedKeys() {
		st := c.bases[k]
		if err := zswitch.InstallIDToBasis(pl, st.id, st.basis, c.sim.Now()); err != nil {
			panic(fmt.Sprintf("controlplane: decoder reinstall: %v", err))
		}
	}
}

// installAllBasisToID repopulates an encoder's dictionary from the
// controller's cache.
func (c *Controller) installAllBasisToID(pl *tofino.Pipeline) {
	for _, k := range c.sortedKeys() {
		st := c.bases[k]
		if err := zswitch.InstallBasisToID(pl, st.basis, st.id, c.sim.Now()); err != nil {
			panic(fmt.Sprintf("controlplane: encoder reinstall: %v", err))
		}
	}
}

// recordRecovery folds one completed reconciliation into the stats.
func (c *Controller) recordRecovery(downSince netsim.Time) {
	if r := int64(c.sim.Now() - downSince); r > c.stats.RecoveryNsMax {
		c.stats.RecoveryNsMax = r
	}
}
