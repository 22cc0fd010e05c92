package main

import (
	"encoding/json"
	"fmt"
	"time"

	"zipline/internal/scenario"
)

var (
	rungRun   = &rung{"scenario.Scenario.Run", "netsim", ""}
	rungBuild = &rung{"scenario.Build", "scenario", ""}
)

// simFlows raises the preset's flow count until one Run is a pass.
const simFlows = 192

type simRunner struct {
	spec scenario.Spec
	sc   *scenario.Scenario // built and not yet run; Run consumes it

	// first is the first pass's simulated statistics: every later pass
	// must reproduce them exactly.
	first *simStats

	tBuild, tRun time.Duration
	runAllocs    uint64
	report       scenario.Report
}

// simStats are the simulated quantities a simulator speed-up must
// leave identical.
type simStats struct {
	Events           uint64
	CompressionRatio float64
	Offered          scenario.TrafficTotals
	Delivered        scenario.TrafficTotals
	Learning         scenario.LearningReport
}

func setupSimFabric(seed int64, quick bool) (runner, error) {
	spec, ok := scenario.Preset("fat-tree-churn")
	if !ok {
		return nil, fmt.Errorf("sim-fabric: preset fat-tree-churn is missing")
	}
	// The seed drives the payloads and the control plane's jitter; the
	// churn draw (which hosts talk, when, how much) keeps one seed, so
	// every seed gives the same amount of simulated work.
	spec.Seed = seed
	spec.Flows.Count, spec.Flows.Seed = simFlows, 1
	if quick {
		spec.Topology.K, spec.Topology.HostsPerEdge, spec.Flows.Count = 4, 4, 16
	}
	sc, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	return &simRunner{spec: spec, sc: sc}, nil
}

func (r *simRunner) inputHash() uint64 {
	b, err := json.Marshal(r.spec)
	if err != nil {
		return 0
	}
	return hashBytes(b)
}

func (r *simRunner) close() {}

// pass runs the scenario once on a fresh build. Only Run is timed
// into the end-to-end numbers; the build is set-up.
func (r *simRunner) pass(tr *tracer) (passResult, error) {
	if r.sc == nil {
		s := time.Now()
		sc, err := scenario.Build(r.spec)
		if err != nil {
			return passResult{}, err
		}
		r.tBuild = time.Since(s)
		tr.end(rungBuild, 0, s)
		r.sc = sc
	}
	var m0 uint64
	if tr != nil {
		m0 = mallocs()
	}
	s := time.Now()
	rep := r.sc.Run()
	wall := time.Since(s)
	tr.end(rungRun, 0, s)
	if tr != nil {
		r.runAllocs = mallocs() - m0
		r.tRun, r.report = wall, rep
	}
	events := r.sc.Sim.Scheduled()
	r.sc = nil

	if rep.Learning == nil {
		return passResult{}, fmt.Errorf("sim-fabric: the report has no learning section")
	}
	st := simStats{events, rep.CompressionRatio, rep.Offered, rep.Delivered, *rep.Learning}
	if r.first == nil {
		r.first = &st
	}
	// Frames that were lost, or reached a decoder without their mapping.
	failed := int(rep.Offered.Frames-min(rep.Delivered.Frames, rep.Offered.Frames)) + int(rep.Encode.DecodeMiss)
	if st != *r.first {
		failed = int(rep.Offered.Frames) // a run that does not repeat is wrong throughout
	}
	return passResult{
		attempted: int(rep.Offered.Frames), failed: failed,
		opsPerS:   float64(events) / wall.Seconds(),
		encodeMBs: mbPerS(int(rep.Encode.EncPayloadIn), wall),
		decodeMBs: mbPerS(int(rep.Delivered.PayloadBytes), wall),
		wireRatio: rep.CompressionRatio,
		top:       wall,
	}, nil
}

func (r *simRunner) ladder(_ *tracer, layer samples) error {
	events := float64(r.report.Events)
	layer.add("scenario.build_s", r.tBuild.Seconds())
	layer.add("scenario.run_s", r.tRun.Seconds())
	layer.add("netsim.events", events)
	layer.add("netsim.ns_per_event", float64(r.tRun.Nanoseconds())/events)
	layer.add("netsim.allocs_per_event", float64(r.runAllocs)/events)
	layer.add("controlplane.learned", float64(r.report.Learning.Learned))
	layer.add("controlplane.digests_seen", float64(r.report.Learning.DigestsSeen))
	layer.add("controlplane.delay_p50_ms", r.report.Learning.DelayP50Ms)
	layer.add("controlplane.delay_p99_ms", r.report.Learning.DelayP99Ms)
	layer.add("zswitch.sim_encoded_frames", float64(r.report.Encode.Encoded()))
	return nil
}

// layers has nothing to derive: the simulator is timed as a whole.
func (r *simRunner) layers(map[string]float64) map[string]float64 { return nil }
