package scenario

import (
	"runtime"
	"testing"
)

// TestFatTreeChurnAllocsPerEvent guards the simulator's allocation
// rate on the sim-fabric benchmark's quick geometry (fat-tree-churn at
// K = 4, four hosts per edge, 16 flows): heap allocations per
// scheduled event, counted over Run alone. The control plane's decoder
// installs once allocated about four objects each and dominated the
// count; what remains (1.29 per event) is mostly event closures and
// host frames. The test must not run in parallel: the counter is
// process-wide.
func TestFatTreeChurnAllocsPerEvent(t *testing.T) {
	const maxAllocsPerEvent = 1.35
	spec, ok := Preset("fat-tree-churn")
	if !ok {
		t.Fatal("fat-tree-churn preset missing")
	}
	spec.Seed = 1
	spec.Topology.K, spec.Topology.HostsPerEdge = 4, 4
	spec.Flows.Count, spec.Flows.Seed = 16, 1
	sc, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc.Run()
	runtime.ReadMemStats(&after)
	events := sc.Sim.Scheduled()
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d events, %.3f allocations each", events, perEvent)
	if perEvent > maxAllocsPerEvent {
		t.Fatalf("%.3f heap allocations per event, want at most %.2f", perEvent, maxAllocsPerEvent)
	}
}
