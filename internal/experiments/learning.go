package experiments

import (
	"fmt"

	"zipline/internal/netsim"
	"zipline/internal/scenario"
	"zipline/internal/stats"
)

// LearningResult is the §7 "Dynamic learning" measurement: the time
// between the arrival of the first type 2 packet and the arrival of
// the first type 3 packet for a previously unknown basis. The paper
// reports (1.77 ± 0.08) ms.
type LearningResult struct {
	// DelayMs collects one measurement per repeat, in milliseconds.
	DelayMs *stats.Sample
}

// LearningConfig parameterises the experiment.
type LearningConfig struct {
	// Repeats (default 10, as in the paper).
	Repeats int
	// Seed bases per-repeat seeds.
	Seed int64
}

func (c LearningConfig) withDefaults() LearningConfig {
	if c.Repeats == 0 {
		c.Repeats = 10
	}
	if c.Seed == 0 {
		c.Seed = 41
	}
	return c
}

// learningWindowNs bounds each run, comfortably past the expected
// delay.
const learningWindowNs = 20 * netsim.Millisecond

// Learning measures the dynamic-learning delay on the scenario
// engine: one unified encode switch, one repeated unknown payload per
// repeat ("we repeatedly send the same data packet as fast as
// possible": generatorPPS), receiver-side first-t3 minus first-t2.
func Learning(cfg LearningConfig) (LearningResult, error) {
	cfg = cfg.withDefaults()
	res := LearningResult{DelayMs: stats.New()}
	for rep := 0; rep < cfg.Repeats; rep++ {
		seed := cfg.Seed + int64(rep)*7919
		spec := fixture("learning", seed, scenario.RoleEncode, generatorPPS)
		spec.Traffic = []scenario.TrafficSpec{{
			From: "sender", To: "sink",
			Workload: scenario.WorkloadRepeat,
			Records:  1 << 30, // the window, not the count, ends the flow
			StopNs:   int64(learningWindowNs),
			Seed:     seed,
		}}
		sc, err := scenario.Build(spec)
		if err != nil {
			return res, err
		}
		r := sc.Run()
		delay := r.Hosts[1].LearningDelayMs
		if delay < 0 {
			return res, fmt.Errorf("rep %d: learning did not complete (report %+v)", rep, r.Hosts[1])
		}
		res.DelayMs.Add(delay)
	}
	return res, nil
}

// InlineLink runs the full in-network deployment on the fixture: the
// sender offers payloads(i) at pps packets per second until it
// returns nil, through an encoding switch whose dictionary the control
// plane learns on the fly. It returns the run's report and the sink's
// receive counters, whose FirstArrival times the learning delay.
// Payloads shorter than a chunk cross raw. Same seed and payloads,
// same result.
func InlineLink(seed int64, pps float64, payloads func(i int) []byte) (scenario.Report, netsim.RxStats, error) {
	sc, err := scenario.Build(fixture("inline", seed, scenario.RoleEncode, pps))
	if err != nil {
		return scenario.Report{}, netsim.RxStats{}, err
	}
	r := stream(sc, payloads)
	return r, sc.Host("sink").Rx(), nil
}
