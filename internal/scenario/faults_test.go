package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"zipline/internal/netsim"
	"zipline/internal/zswitch"
)

// encodeReport renders a report exactly as the CLI's -json mode does,
// so byte comparisons against saved reports are meaningful.
func encodeReport(t *testing.T, r Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNoFaultReportsMatchPrefaultGoldens is the no-fault no-change
// guarantee: every pre-fault preset, run with an explicitly present
// but empty FaultSpec, must produce a report byte-identical to the
// golden captured before the fault machinery existed. Any extra
// event, random draw, or JSON field in the unarmed path fails this.
func TestNoFaultReportsMatchPrefaultGoldens(t *testing.T) {
	for _, name := range []string{"single", "chain3", "lossy-chain3", "fanin", "perf"} {
		name := name
		t.Run(name, func(t *testing.T) {
			if name == "perf" && testing.Short() {
				t.Skip("perf preset is slow; run without -short")
			}
			golden, err := os.ReadFile(filepath.Join("testdata", "prefault", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			spec := preset(t, name)
			spec.Faults = &netsim.FaultSpec{} // present but unarmed
			got := encodeReport(t, mustBuild(t, spec).Run())
			if !bytes.Equal(got, golden) {
				t.Fatalf("report diverged from pre-fault golden (%d vs %d bytes)", len(got), len(golden))
			}
		})
	}
}

// TestFaultRunsAreDeterministic: the same armed spec must produce the
// identical report on every run — fault injection draws from its own
// seeded stream, retransmit timers carry no jitter.
func TestFaultRunsAreDeterministic(t *testing.T) {
	run := func() []byte {
		return encodeReport(t, mustBuild(t, preset(t, "lossy-control")).Run())
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical fault specs produced different reports")
	}
}

// TestLossyControlRecovers: the shipping fault preset must survive a
// 20% lossy control channel plus a decoder power cycle with zero
// stranded compressed packets, a completed resync, and the losses it
// does take fully accounted as crash drops.
func TestLossyControlRecovers(t *testing.T) {
	r := mustBuild(t, preset(t, "lossy-control")).Run()
	f := r.Faults
	if f == nil {
		t.Fatal("armed run produced no fault report")
	}
	if f.StrandedCompressed != 0 {
		t.Fatalf("stranded compressed packets: %d", f.StrandedCompressed)
	}
	if f.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", f.Resyncs)
	}
	if f.BypassFrames == 0 || f.Retransmits == 0 || f.ControlMsgsLost == 0 {
		t.Fatalf("fault machinery idle: %+v", f)
	}
	if f.RecoveryTimeNs <= 2_000_000 {
		t.Fatalf("recovery %.3f ms cannot be shorter than the 2 ms reboot", float64(f.RecoveryTimeNs)/1e6)
	}
	// Every missing frame died in the crash window — nothing vanished
	// into a decoder miss or a stuck queue.
	if lost := r.Offered.Frames - r.Delivered.Frames; lost != f.SwitchDownDrops {
		t.Fatalf("offered−delivered = %d but crash drops = %d", lost, f.SwitchDownDrops)
	}
	if r.DeliveryRate < 0.7 {
		t.Fatalf("delivery rate %.3f collapsed", r.DeliveryRate)
	}
}

// forwardOnly strips every encode/decode role, turning the topology
// into a plain uncompressed network with no controller.
func forwardOnly(spec Spec) Spec {
	for si := range spec.Switches {
		for pi := range spec.Switches[si].Ports {
			spec.Switches[si].Ports[pi].Role = RoleForward
		}
	}
	return spec
}

// TestRestartDeliveryMatchesUncompressedBaseline pins the acceptance
// bound: with a decoder power cycle (and a lossless control channel),
// running ZipLine must not deliver fewer frames than the identical
// uncompressed network under the identical fault schedule — recovery
// overlaps the reboot, so compression costs no extra downtime.
func TestRestartDeliveryMatchesUncompressedBaseline(t *testing.T) {
	faults := &netsim.FaultSpec{
		Restarts: []netsim.RestartSpec{
			{Switch: "dec", AtNs: 10_000_000, DownNs: 5_000_000},
		},
	}
	zip := preset(t, "chain3")
	zip.Faults = faults
	zr := mustBuild(t, zip).Run()

	base := forwardOnly(preset(t, "chain3"))
	base.Faults = faults
	br := mustBuild(t, base).Run()

	if zr.Faults.StrandedCompressed != 0 {
		t.Fatalf("stranded: %d", zr.Faults.StrandedCompressed)
	}
	if br.Delivered.Frames >= br.Offered.Frames {
		t.Fatal("baseline lost nothing; the restart never bit")
	}
	if zr.Delivered.Frames < br.Delivered.Frames {
		t.Fatalf("compressed delivery %d < uncompressed baseline %d",
			zr.Delivered.Frames, br.Delivered.Frames)
	}
}

// tailRatio runs spec and returns its report plus the encode
// compression ratio measured only over [tailStart, end) — the
// post-recovery steady state, excluding the crash and bypass window.
func tailRatio(t *testing.T, spec Spec, tailStart netsim.Time) (Report, float64) {
	t.Helper()
	sc := mustBuild(t, spec)
	var inAt, outAt uint64
	sc.Sim.At(tailStart, func() {
		for _, name := range spec.switchNames() {
			st := zswitch.ReadStats(sc.Pipeline(name))
			inAt += st.EncPayloadIn
			outAt += st.EncPayloadOut
		}
	})
	r := sc.Run()
	var inEnd, outEnd uint64
	for _, name := range spec.switchNames() {
		st := zswitch.ReadStats(sc.Pipeline(name))
		inEnd += st.EncPayloadIn
		outEnd += st.EncPayloadOut
	}
	if inEnd == inAt {
		t.Fatalf("no encode traffic after %v", tailStart)
	}
	return r, float64(outEnd-outAt) / float64(inEnd-inAt)
}

// switchNames lists the spec's switches (test helper).
func (s Spec) switchNames() []string {
	names := make([]string, len(s.Switches))
	for i, sw := range s.Switches {
		names[i] = sw.Name
	}
	return names
}

// TestCompressionRatioRecovers pins the re-convergence acceptance
// bound: after the decoder restart is reconciled, the steady-state
// compression ratio must come back to within 5% of the fault-free
// run's over the same window. The schedule is restart-only — a
// *persistently* lossy control channel also slows the learning of
// new bases in the tail, which is channel cost, not failed recovery.
func TestCompressionRatioRecovers(t *testing.T) {
	// Crash at 10 ms, lossless control: recovery lands around 13.6 ms,
	// so [25 ms, end) is post-recovery steady state on both runs
	// (traffic flows to ≈40 ms).
	const tailStart = 25 * netsim.Millisecond

	clean := preset(t, "chain3")
	_, cleanTail := tailRatio(t, clean, tailStart)

	faulty := preset(t, "chain3")
	faulty.Faults = &netsim.FaultSpec{
		Restarts: []netsim.RestartSpec{
			{Switch: "dec", AtNs: 10_000_000, DownNs: 2_000_000},
		},
	}
	fr, faultyTail := tailRatio(t, faulty, tailStart)

	if fr.Faults.RecoveryTimeNs > int64(tailStart-10*netsim.Millisecond) {
		t.Fatalf("recovery %.3f ms ran past the tail window; widen the test margins",
			float64(fr.Faults.RecoveryTimeNs)/1e6)
	}
	if rel := (faultyTail - cleanTail) / cleanTail; rel > 0.05 || rel < -0.05 {
		t.Fatalf("post-recovery ratio %.4f vs fault-free %.4f (%.1f%% off, want ≤5%%)",
			faultyTail, cleanTail, rel*100)
	}
}

// hammerSpec derives a randomized-but-deterministic fault schedule
// for one hammer iteration: every switch may power-cycle (windows
// kept disjoint), the control channel may be lossy.
func hammerSpec(base Spec, rng *rand.Rand) Spec {
	f := &netsim.FaultSpec{
		ControlLossProb: []float64{0, 0.1, 0.3}[rng.Intn(3)],
	}
	at := int64(3+rng.Intn(3)) * 1_000_000
	for _, sw := range base.Switches {
		if rng.Intn(2) == 0 {
			continue
		}
		down := int64(1+rng.Intn(4)) * 1_000_000
		f.Restarts = append(f.Restarts, netsim.RestartSpec{
			Switch: sw.Name, AtNs: at, DownNs: down,
		})
		at += down + int64(rng.Intn(3))*1_000_000
	}
	if !f.Armed() {
		f.ControlLossProb = 0.1
	}
	base.Faults = f
	for i := range base.Traffic {
		base.Traffic[i].Records = 8_000
	}
	return base
}

// TestFaultScheduleHammer is the invariant hammer: randomized fault
// schedules across seeds and topologies, every one of which must end
// with zero stranded compressed packets, all bypasses released, and
// every scheduled reconciliation completed.
func TestFaultScheduleHammer(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	for _, presetName := range []string{"chain3", "fanin"} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			presetName, seed := presetName, seed
			t.Run(fmt.Sprintf("%s/seed%d", presetName, seed), func(t *testing.T) {
				t.Parallel()
				base := preset(t, presetName)
				base.Seed = seed
				spec := hammerSpec(base, rand.New(rand.NewSource(seed*31+int64(len(presetName)))))
				sc := mustBuild(t, spec)
				r := sc.Run()

				if r.Faults == nil {
					t.Fatal("armed hammer run produced no fault report")
				}
				if r.Faults.StrandedCompressed != 0 {
					t.Fatalf("stranded compressed packets: %d (schedule %+v)",
						r.Faults.StrandedCompressed, spec.Faults)
				}
				if r.Encode.DecodeMiss != 0 {
					t.Fatalf("decode misses: %d", r.Encode.DecodeMiss)
				}
				// Re-convergence: every quarantine was released...
				for _, name := range spec.switchNames() {
					if sc.Pipeline(name).Program().(*zswitch.Program).Bypassing() {
						t.Fatalf("switch %s still bypassing at end of run", name)
					}
				}
				// ...and every managed restart completed its resync.
				managed := 0
				for _, rs := range spec.Faults.Restarts {
					if sc.Ctl.Manages(sc.Pipeline(rs.Switch)) {
						managed++
					}
				}
				if got := sc.Ctl.Stats().Resyncs; int(got) != managed {
					t.Fatalf("resyncs = %d, want %d (schedule %+v)", got, managed, spec.Faults)
				}
				// The strongest form of zero-stranded: every missing
				// frame is attributable to a down window (the preset
				// links themselves are lossless) — nothing vanished
				// into a miss, a stale table, or a stuck queue.
				var linkDown uint64
				for _, l := range r.Links {
					linkDown += l.DownDrops
				}
				lost := r.Offered.Frames - r.Delivered.Frames
				if lost != r.Faults.SwitchDownDrops+linkDown {
					t.Fatalf("offered−delivered = %d but down-window drops = %d+%d (schedule %+v)",
						lost, r.Faults.SwitchDownDrops, linkDown, spec.Faults)
				}
				if r.DeliveryRate < 0.15 {
					t.Fatalf("delivery rate %.3f collapsed under %+v", r.DeliveryRate, spec.Faults)
				}
			})
		}
	}
}

// TestLinkFlapDropsAndRecovers: a mid-chain link flap loses the
// window's frames in both directions and nothing else — no stranding,
// no stuck state.
func TestLinkFlapDropsAndRecovers(t *testing.T) {
	spec := preset(t, "chain3")
	spec.Faults = &netsim.FaultSpec{
		LinkFlaps: []netsim.FlapSpec{{Link: 2, AtNs: 10_000_000, DownNs: 2_000_000}},
	}
	r := mustBuild(t, spec).Run()
	if r.Faults.StrandedCompressed != 0 {
		t.Fatalf("stranded: %d", r.Faults.StrandedCompressed)
	}
	if r.Delivered.Frames >= r.Offered.Frames {
		t.Fatal("flap lost nothing")
	}
	var downDrops uint64
	for _, l := range r.Links {
		downDrops += l.DownDrops
	}
	if downDrops == 0 {
		t.Fatal("flap window not accounted in link down_drops")
	}
	if r.DeliveryRate < 0.9 {
		t.Fatalf("delivery rate %.3f, want a single flap window of loss", r.DeliveryRate)
	}
}

// TestValidateRejectsBadFaults: schedule validation runs inside
// Build.
func TestValidateRejectsBadFaults(t *testing.T) {
	cases := []netsim.FaultSpec{
		{ControlLossProb: 1.5},
		{Restarts: []netsim.RestartSpec{{Switch: "ghost"}}},
		{Restarts: []netsim.RestartSpec{{Switch: "sender"}}}, // a host, not a switch
		{LinkFlaps: []netsim.FlapSpec{{Link: 99}}},
	}
	for i := range cases {
		spec := preset(t, "chain3")
		spec.Faults = &cases[i]
		if _, err := Build(spec); err == nil {
			t.Errorf("case %d: bad fault schedule %+v accepted", i, cases[i])
		}
	}
}
