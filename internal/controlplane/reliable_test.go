package controlplane

import (
	"math/rand"
	"testing"

	"zipline/internal/netsim"
	"zipline/internal/packet"
	"zipline/internal/zswitch"
)

// armedConfig returns a fault-armed Config with the given control
// channel loss probability.
func armedConfig(seed int64, loss float64) Config {
	return Config{
		Faults:          netsim.NewFaults(seed),
		ControlLossProb: loss,
	}
}

// TestArmedZeroLossStillLearns: arming the fault model with a
// lossless control channel must leave learning intact — the reliable
// protocol is a superset, not a different behavior.
func TestArmedZeroLossStillLearns(t *testing.T) {
	tb := newTestbed(t, zswitch.Config{}, armedConfig(1, 0))
	payload := make([]byte, 32)
	rand.New(rand.NewSource(5)).Read(payload)
	tb.a.Stream(0, 20*netsim.Millisecond, func(i uint64) []byte { return rawFrame(payload) })
	runChecked(t, tb.ctl)

	st := tb.ctl.Stats()
	if st.Learned != 1 {
		t.Fatalf("learned = %d, want 1 (stats %+v)", st.Learned, st)
	}
	if st.Retransmits != 0 || st.Abandoned != 0 {
		t.Fatalf("lossless channel retransmitted: %+v", st)
	}
	if rx := tb.b.Rx(); rx.TypeFrames[packet.TypeCompressed] == 0 {
		t.Fatal("no compressed frames after learning")
	}
}

// TestLossyChannelRetransmitsAndLearns: with a 30% lossy control
// channel the digests and writes must retry until the mapping lands.
func TestLossyChannelRetransmitsAndLearns(t *testing.T) {
	tb := newTestbed(t, zswitch.Config{}, armedConfig(2, 0.3))
	payload := make([]byte, 32)
	rand.New(rand.NewSource(5)).Read(payload)
	tb.a.Stream(0, 40*netsim.Millisecond, func(i uint64) []byte { return rawFrame(payload) })
	runChecked(t, tb.ctl)

	st := tb.ctl.Stats()
	if st.Learned != 1 {
		t.Fatalf("learned = %d, want 1 (stats %+v)", st.Learned, st)
	}
	if st.Retransmits == 0 {
		t.Fatal("30% loss produced no retransmits")
	}
	if tb.cfgFaults().MsgsLost == 0 {
		t.Fatal("fault injector recorded no losses")
	}
	if rx := tb.b.Rx(); rx.TypeFrames[packet.TypeCompressed] == 0 {
		t.Fatal("mapping never became usable")
	}
	if tb.ctl.installsInFlight() != 0 {
		t.Fatalf("inflight not drained: %d entries", tb.ctl.installsInFlight())
	}
}

// TestInflightReapedOnAbandonment pins the map-hygiene contract: an
// install chain abandoned by the retry cap must delete its inflight
// entry (so a later digest can re-learn the basis) rather than pin it
// forever.
func TestInflightReapedOnAbandonment(t *testing.T) {
	cfg := armedConfig(3, 0.8)
	cfg.MaxRetries = 1
	tb := newTestbed(t, zswitch.Config{}, cfg)
	// Several distinct bases so multiple chains start; at 80% loss
	// with one retry most of them abandon mid-chain.
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = make([]byte, 32)
		rand.New(rand.NewSource(int64(i + 10))).Read(payloads[i])
	}
	tb.a.Stream(0, 30*netsim.Millisecond, func(i uint64) []byte {
		return rawFrame(payloads[i%uint64(len(payloads))])
	})
	runChecked(t, tb.ctl)

	st := tb.ctl.Stats()
	if st.Abandoned == 0 {
		t.Fatalf("80%% loss with MaxRetries=1 abandoned nothing: %+v", st)
	}
	if tb.ctl.installsInFlight() != 0 {
		t.Fatalf("abandoned chains pinned %d inflight entries", tb.ctl.installsInFlight())
	}
	// Identifiers from chains that died before any encoder write must
	// be back in the pool: the free list plus live and mid-flight
	// mappings can never exceed the pool, and abandonment must not
	// leak the whole pool away.
	if len(tb.ctl.free) == 0 {
		t.Fatal("identifier pool drained by abandonment")
	}
}

// TestStaleEpochDigestDiscarded: a digest stamped with an epoch other
// than the emitting switch's current one (emitted before a crash,
// delivered after) is dropped, not learned.
func TestStaleEpochDigestDiscarded(t *testing.T) {
	tb := newTestbed(t, zswitch.Config{}, armedConfig(4, 0))
	pl := tb.sw.Pipeline()

	basisBytes := (tb.ctl.basisBits + 7) / 8
	data := make([]byte, basisBytes+4)
	data[basisBytes+3] = 9 // epoch 9; the switch is on epoch 0
	basis, epoch := zswitch.SplitDigest(data, basisBytes)
	tb.ctl.handleDigest(pl, string(basis), epoch, len(data), 0)

	st := tb.ctl.Stats()
	if st.StaleDigests != 1 {
		t.Fatalf("StaleDigests = %d, want 1", st.StaleDigests)
	}
	if tb.ctl.installsInFlight() != 0 || tb.ctl.Mappings() != 0 {
		t.Fatal("stale digest started an install")
	}

	// The same bytes with the correct (zero) epoch are accepted.
	basis, epoch = zswitch.SplitDigest(data[:basisBytes], basisBytes)
	tb.ctl.handleDigest(pl, string(basis), epoch, basisBytes, 0)
	if tb.ctl.installsInFlight() != 1 {
		t.Fatalf("current-epoch digest not accepted: inflight=%d", tb.ctl.installsInFlight())
	}
}

// cfgFaults exposes the testbed's injector for assertions.
func (tb *testbed) cfgFaults() *netsim.Faults {
	return tb.ctl.cfg.Faults
}
