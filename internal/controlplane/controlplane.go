package controlplane

import (
	"fmt"
	"sort"

	"zipline/internal/bitvec"
	"zipline/internal/netsim"
	"zipline/internal/stats"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

// Config models the controller's timing and pool size.
type Config struct {
	// IDBits sizes the identifier pool at 2^IDBits (default 15).
	IDBits int
	// IDFirst and IDLimit restrict this controller's allocations to
	// the half-open identifier range [IDFirst, IDLimit) within the
	// 2^IDBits pool. Zero IDLimit means the whole pool. Disjoint
	// ranges let several controllers — one per encoder domain — share
	// a network's decoder tables without identifier collisions: this
	// is how dictionary capacity is split across encoding switches in
	// placement experiments.
	IDFirst uint32
	IDLimit uint32
	// DigestLatencyNs is the data-plane→controller delivery delay,
	// covering hardware digest batching and the BfRt stream channel
	// (default 150 µs).
	DigestLatencyNs netsim.Time
	// DecisionNs is the controller's processing time per new basis
	// (default 20 µs).
	DecisionNs netsim.Time
	// WriteLatencyNs is one BfRt table write (default 800 µs).
	// A fresh mapping takes two writes: decoder first, then encoder.
	WriteLatencyNs netsim.Time
	// SweepIntervalNs polls the encoder's idle timers for TTL expiry
	// (0 disables aging sweeps).
	SweepIntervalNs netsim.Time

	// Faults, when non-nil, arms the fault model: the control channel
	// becomes lossy — every control message (digest, table write, ack,
	// restart notification) draws a loss decision from it — and gains
	// acks and retransmission. The protocol on top is the same; nil is
	// the lossless channel, which draws and schedules nothing extra.
	Faults *netsim.Faults
	// ControlLossProb drops control messages i.i.d. per message
	// (armed runs only).
	ControlLossProb float64
	// RetransmitTimeoutNs is the base retransmit timeout; attempt k
	// waits netsim.Backoff(base, k) — deterministic, no jitter
	// (default netsim.DefaultRetransmitTimeoutNs).
	RetransmitTimeoutNs netsim.Time
	// MaxRetries caps retransmissions of digests and install writes
	// (default netsim.DefaultMaxRetries). Resync traffic — restart
	// notifications, quarantine and reinstall writes — retries
	// without cap: the zero-stranded guarantee depends on it landing.
	MaxRetries int
}

// Defaults chosen so that DigestLatency + Decision + 2×Write =
// 1.77 ms, the paper's measured learning delay.
const (
	DefaultDigestLatencyNs = 150 * netsim.Microsecond
	DefaultDecisionNs      = 20 * netsim.Microsecond
	DefaultWriteLatencyNs  = 800 * netsim.Microsecond
)

// jitterFrac adds uniform noise to every latency component.
const jitterFrac = 0.03

func (c Config) withDefaults() Config {
	if c.IDBits == 0 {
		c.IDBits = 15
	}
	if c.DigestLatencyNs == 0 {
		c.DigestLatencyNs = DefaultDigestLatencyNs
	}
	if c.DecisionNs == 0 {
		c.DecisionNs = DefaultDecisionNs
	}
	if c.WriteLatencyNs == 0 {
		c.WriteLatencyNs = DefaultWriteLatencyNs
	}
	if c.Faults != nil {
		if c.RetransmitTimeoutNs == 0 {
			c.RetransmitTimeoutNs = netsim.DefaultRetransmitTimeoutNs
		}
		if c.MaxRetries == 0 {
			c.MaxRetries = netsim.DefaultMaxRetries
		}
	}
	return c
}

// Stats counts controller activity.
type Stats struct {
	// DigestsSeen is every digest delivered, including duplicates.
	DigestsSeen uint64 `json:"digests_seen"`
	// DigestBytes is the payload volume those digests carried — the
	// data-plane→control-plane channel cost a deployment budgets for.
	DigestBytes uint64 `json:"digest_bytes"`
	// Learned is the number of fresh basis→ID mappings installed.
	Learned uint64 `json:"learned"`
	// Recycled counts identifiers taken from live mappings via LRU.
	Recycled uint64 `json:"recycled"`
	// Expired counts mappings removed by TTL sweeps.
	Expired uint64 `json:"expired"`
	// Duplicates counts digests ignored because the basis was
	// already mapped or mid-installation.
	Duplicates uint64 `json:"duplicates"`

	// Fault-era counters, all zero (and omitted from JSON) in
	// fault-free runs.

	// Retransmits counts control messages re-sent after a timeout.
	Retransmits uint64 `json:"retransmits,omitempty"`
	// Abandoned counts control messages dropped after the retry cap;
	// the record of the install they belonged to is reaped so a later
	// digest can re-learn the basis.
	Abandoned uint64 `json:"abandoned,omitempty"`
	// StaleDigests counts digests discarded because their epoch no
	// longer matched the emitting switch (emitted before a restart,
	// delivered after).
	StaleDigests uint64 `json:"stale_digests,omitempty"`
	// Resyncs counts restart reconciliations run.
	Resyncs uint64 `json:"resyncs,omitempty"`
	// RecoveryNsMax is the slowest crash→reconverged interval
	// observed across restarts.
	RecoveryNsMax int64 `json:"recovery_ns_max,omitempty"`
}

// basisState is the controller's one record of a basis it accepted
// from a digest: an install in flight until live, then a mapping on
// every decoder and encoder. The record is dropped when the install
// is abandoned or the mapping is evicted.
type basisState struct {
	id        uint32         // the mapping's identifier, once live
	basis     *bitvec.Vector // what the install writes
	emitted   netsim.Time    // the first digest's emission: learning delay starts here
	live      bool           // installed everywhere; Mappings counts these
	recycling bool           // live, with an eviction (LRU or TTL) pending
}

// Controller is the simulated control plane bound to one or more
// encoder pipelines and one or more decoder pipelines (which may be
// the same pipeline in a unified single-switch deployment). All
// encoders share one dictionary keyed by identifier, so a basis
// learned from any encoder becomes compressible on every encoder —
// the multi-switch deployment of §8's network-wide discussion.
type Controller struct {
	sim  *netsim.Sim
	cfg  Config
	encs []*tofino.Pipeline
	decs []*tofino.Pipeline

	basisBits int

	free   []uint32
	bases  map[string]*basisState // keyed by the basis bytes, as digested
	mapped int                    // live records

	// Restart state (see reliable.go), idle while no switch crashes.
	// switches maps a managed pipeline to its simulated switch so
	// reliable writes can observe crash state at delivery; gen bumps
	// on every decoder restart and stales any install chain begun
	// under an older value; bypassHolds refcounts overlapping resyncs
	// holding an encoder in bypass.
	switches    map[*tofino.Pipeline]*netsim.Switch
	gen         uint64
	bypassHolds map[*tofino.Pipeline]int

	stats  Stats
	delays *stats.Sample // per-basis learning delay, milliseconds
}

// NewMulti builds a controller owning the dictionaries of one or more
// encoder and decoder pipelines; basisBits is the dictionary key width
// (Codec.BasisBits()). Each install phase programs every pipeline of
// its tier in one batched BfRt write: all decoders first, then all
// encoders, preserving the paper's invariant that a compressed packet
// can always be uncompressed — now network-wide.
func NewMulti(sim *netsim.Sim, cfg Config, encs, decs []*tofino.Pipeline, basisBits int) (*Controller, error) {
	cfg = cfg.withDefaults()
	if basisBits <= 0 {
		return nil, fmt.Errorf("controlplane: basisBits %d", basisBits)
	}
	if cfg.IDBits < 1 || cfg.IDBits > 24 {
		return nil, fmt.Errorf("controlplane: IDBits %d out of range", cfg.IDBits)
	}
	if len(encs) == 0 || len(decs) == 0 {
		return nil, fmt.Errorf("controlplane: need at least one encoder and one decoder pipeline")
	}
	c := &Controller{
		sim:         sim,
		cfg:         cfg,
		encs:        encs,
		decs:        decs,
		basisBits:   basisBits,
		bases:       make(map[string]*basisState),
		switches:    make(map[*tofino.Pipeline]*netsim.Switch),
		bypassHolds: make(map[*tofino.Pipeline]int),
		delays:      stats.New(),
	}
	n := 1 << uint(cfg.IDBits)
	first, limit := int(cfg.IDFirst), int(cfg.IDLimit)
	if limit == 0 {
		limit = n
	}
	if first >= limit || limit > n {
		return nil, fmt.Errorf("controlplane: identifier range [%d,%d) invalid for IDBits %d", first, limit, cfg.IDBits)
	}
	c.free = make([]uint32, 0, limit-first)
	for id := limit - 1; id >= first; id-- {
		c.free = append(c.free, uint32(id))
	}
	if cfg.SweepIntervalNs > 0 {
		sim.After(cfg.SweepIntervalNs, c.sweep)
	}
	return c, nil
}

// Stats returns a snapshot of controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// LearningDelayMs is the sample of per-basis learning delays: for
// each learned basis, the time from its first digest leaving the data
// plane to the encoder mapping going live, in milliseconds. With the
// default timing its mean models the paper's (1.77 ± 0.08) ms.
func (c *Controller) LearningDelayMs() *stats.Sample { return c.delays }

// Mappings reports the number of live basis→ID mappings.
func (c *Controller) Mappings() int { return c.mapped }

// Bind subscribes the controller to a switch's digests, paying the
// digest delivery latency for each and copying its basis once, into
// the key of its record. RegisterSwitch is implied: the fault
// machinery learns which switch hosts the pipeline.
func (c *Controller) Bind(sw *netsim.Switch) {
	c.RegisterSwitch(sw)
	pl := sw.Pipeline()
	basisBytes := (c.basisBits + 7) / 8
	prev := sw.OnDigest
	sw.OnDigest = func(ds []tofino.Digest) {
		if prev != nil {
			prev(ds)
		}
		for _, d := range ds {
			basis, epoch := zswitch.SplitDigest(d.Data, basisBytes)
			key, size, emitted := string(basis), len(d.Data), d.EmittedAt
			// The switch-side digest agent retransmits on timeout,
			// capped: an abandoned digest is re-emitted naturally by
			// the next miss for the same basis.
			c.deliver(c.cfg.DigestLatencyNs, c.cfg.MaxRetries, func() {
				c.handleDigest(pl, key, epoch, size, emitted)
			})
		}
	}
}

// RegisterSwitch tells the controller which simulated switch hosts a
// pipeline, so reliable control messages can observe crash state at
// delivery time. Idempotent; schedules nothing.
func (c *Controller) RegisterSwitch(sw *netsim.Switch) {
	c.switches[sw.Pipeline()] = sw
}

// IsDecoder reports whether the controller manages pl as a decoder
// (restart reconciliation must then hold its ports down until the
// encoders are quarantined).
func (c *Controller) IsDecoder(pl *tofino.Pipeline) bool {
	for _, dec := range c.decs {
		if dec == pl {
			return true
		}
	}
	return false
}

// Manages reports whether pl is one of the controller's encoder or
// decoder pipelines.
func (c *Controller) Manages(pl *tofino.Pipeline) bool {
	if c.IsDecoder(pl) {
		return true
	}
	for _, enc := range c.encs {
		if enc == pl {
			return true
		}
	}
	return false
}

// armed reports whether the control channel is lossy. deliver and
// write are the only code that asks: everything above them is one
// protocol whatever the channel.
func (c *Controller) armed() bool { return c.cfg.Faults != nil }

// handleDigest is the digest sink for one basis (key) that src
// reported in a size-byte digest tagged with epoch. It discards
// digests emitted by an earlier incarnation of src (only messages
// already in flight at a crash), dedups against every record (live or
// mid-installation) and, when the basis is fresh, records it and
// schedules the allocation decision.
func (c *Controller) handleDigest(src *tofino.Pipeline, key string, epoch uint32, size int, emitted netsim.Time) {
	c.stats.DigestsSeen++
	c.stats.DigestBytes += uint64(size)
	if epoch != zswitch.Epoch(src) {
		c.stats.StaleDigests++
		return
	}
	if _, known := c.bases[key]; known {
		c.stats.Duplicates++
		return
	}
	st := &basisState{basis: bitvec.FromBytes([]byte(key), c.basisBits), emitted: emitted}
	c.bases[key] = st
	c.sim.After(c.sim.Jitter(c.cfg.DecisionNs, jitterFrac), func() {
		c.allocate(key, st)
	})
}

// allocate picks the identifier for one new basis: an unused one if
// available, otherwise the least recently used installed mapping's,
// evicted from every encoder first (phase 0). The chain is tagged with
// the current generation (see install).
func (c *Controller) allocate(key string, st *basisState) {
	gen := c.gen
	if len(c.free) > 0 {
		id := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.install(key, st, id, gen)
		return
	}
	// Pool exhausted. If every mapping is mid-flight (a burst larger
	// than the pool), retry after a write interval.
	victimKey, victim := c.pickVictim()
	if victim == nil {
		c.sim.After(c.sim.Jitter(c.cfg.WriteLatencyNs, jitterFrac), func() {
			c.allocate(key, st)
		})
		return
	}
	victim.recycling = true
	// Phase 0: stop every encoder from using the identifier. Eviction
	// must land (a half-evicted identifier could be recycled into a
	// conflicting mapping), so it retries without cap.
	c.write(c.encs, retryForever, func(enc *tofino.Pipeline) {
		zswitch.DeleteBasisToID(enc, victim.basis)
	}, func(bool) {
		delete(c.bases, victimKey)
		c.mapped--
		c.stats.Recycled++
		c.install(key, st, victim.id, gen)
	})
}

// pickVictim selects the least recently used installed mapping, as
// seen by the data plane's idle timers. With several encoders an
// entry is as recent as its most recent hit anywhere, so its
// effective idle time is the minimum across encoders. Victims with an
// eviction already in flight are skipped so two learns never recycle
// the same identifier; a nil record means every candidate is
// mid-flight.
func (c *Controller) pickVictim() (string, *basisState) {
	victimKey, victim := "", (*basisState)(nil)
	victimIdle := int64(-1)
	//ziplint:allow determinism min-idle reduction with lexicographic tie-break is iteration-order-insensitive
	for k, st := range c.bases {
		if !st.live || st.recycling {
			continue
		}
		idle, held := c.idleAcrossEncoders(k)
		if !held {
			continue
		}
		if idle > victimIdle || (idle == victimIdle && k < victimKey) {
			victimKey, victim, victimIdle = k, st, idle
		}
	}
	return victimKey, victim
}

// idleAcrossEncoders reports how long key has been idle on every
// encoder that holds it (minimum idle — one recent hit anywhere keeps
// the entry warm), and whether any encoder holds it at all.
func (c *Controller) idleAcrossEncoders(key string) (int64, bool) {
	minIdle, live := int64(0), false
	for _, enc := range c.encs {
		tbl, _ := zswitch.Tables(enc)
		if tbl == nil {
			panic("controlplane: encoder pipeline lacks dictionary table")
		}
		idle, present := tbl.IdleTime([]byte(key), c.sim.Now())
		if !present {
			continue
		}
		if !live || idle < minIdle {
			minIdle = idle
		}
		live = true
	}
	return minIdle, live
}

// install runs the paper's two-phase protocol for one new basis:
// every decoder first, so that compressed packets can always be
// uncompressed (§5), and the encoders only once every decoder has
// acknowledged. A chain begun under an older generation (a decoder
// restarted since) is discarded write by write, and a tier that did
// not fully acknowledge abandons the chain; on a lossless channel
// neither happens.
func (c *Controller) install(key string, st *basisState, id uint32, gen uint64) {
	// Phase 1: every decoder.
	c.write(c.decs, c.cfg.MaxRetries, func(dec *tofino.Pipeline) {
		if c.gen != gen {
			return // stale chain: discard at delivery
		}
		if err := zswitch.InstallIDToBasis(dec, id, st.basis, c.sim.Now()); err != nil {
			panic(fmt.Sprintf("controlplane: decoder install: %v", err))
		}
	}, func(acked bool) {
		if !acked || c.gen != gen {
			// Abandoned or staled before any encoder write: no encoder
			// maps the basis, so the identifier is safe to reuse (a
			// future chain overwrites the decoders first). Drop the
			// record so the next digest re-learns.
			delete(c.bases, key)
			c.free = append(c.free, id)
			return
		}
		// Phase 2: the mapping goes live on every encoder, then
		// commits.
		c.write(c.encs, c.cfg.MaxRetries, func(enc *tofino.Pipeline) {
			if c.gen != gen {
				return // stale chain: discard at delivery
			}
			if err := zswitch.InstallBasisToID(enc, st.basis, id, c.sim.Now()); err != nil {
				panic(fmt.Sprintf("controlplane: encoder install: %v", err))
			}
		}, func(acked bool) {
			if !acked || c.gen != gen {
				// Some encoders may hold the mapping; every decoder
				// does (phase 1 completed), so it decodes fine — but it
				// never commits, so the identifier is retired rather
				// than returned to the pool: a reuse would re-point
				// decoder entries while the orphaned encoder entries
				// still compress against the old basis.
				delete(c.bases, key)
				return
			}
			st.id, st.live = id, true
			c.mapped++
			c.delays.Add(float64(c.sim.Now()-st.emitted) / 1e6)
			c.stats.Learned++
		})
	})
}

// sweep ages out mappings whose encoder-side idle timers lapsed. A
// mapping expires only when every encoder that holds it reports it
// idle — one recent hit anywhere keeps it alive network-wide.
func (c *Controller) sweep() {
	now := c.sim.Now()
	expired := make(map[string]int)
	for _, enc := range c.encs {
		for _, key := range zswitch.ExpiredBases(enc, now) {
			expired[key]++
		}
	}
	if len(expired) == 0 {
		c.sim.After(c.cfg.SweepIntervalNs, c.sweep)
		return
	}
	// A key only expires when every encoder holding it reports it
	// idle; count presence for the expired candidates alone.
	keys := make([]string, 0, len(expired))
	for key, n := range expired {
		present := 0
		for _, enc := range c.encs {
			if tbl, _ := zswitch.Tables(enc); tbl != nil {
				if _, holds := tbl.IdleTime([]byte(key), now); holds {
					present++
				}
			}
		}
		if n == present {
			keys = append(keys, key)
		}
	}
	// Deterministic victim order despite map iteration above.
	sort.Strings(keys)
	for _, key := range keys {
		st, known := c.bases[key]
		if !known || !st.live || st.recycling {
			continue
		}
		st.recycling = true
		// One write per tier: encoder entries out first, then the
		// decoder entries, then the identifier returns to the pool.
		// Expiry writes the tables directly, not through write. Routed
		// through write (retrying without cap) the unarmed ttl matrix
		// stays byte-identical, but TestArmedTTLNeverStrands' twelve
		// armed seeds strand 21 compressed frames and two end at 0.25
		// delivery: an expiry chain carries no generation, so a resync
		// can reinstall an encoder mapping whose decoder entry the
		// chain then deletes. The fold needs generation-tagged chains
		// and the model test of ROADMAP item 6.
		c.sim.After(c.sim.Jitter(c.cfg.WriteLatencyNs, jitterFrac), func() {
			for _, enc := range c.encs {
				zswitch.DeleteBasisToID(enc, st.basis)
			}
			delete(c.bases, key)
			c.mapped--
			c.sim.After(c.sim.Jitter(c.cfg.WriteLatencyNs, jitterFrac), func() {
				for _, dec := range c.decs {
					zswitch.DeleteIDToBasis(dec, st.id)
				}
				c.free = append(c.free, st.id)
				c.stats.Expired++
			})
		})
	}
	c.sim.After(c.cfg.SweepIntervalNs, c.sweep)
}
