package scenario

import "zipline/internal/netsim"

// Presets are ready-made scenarios: the paper's testbed, multi-switch
// chains, and degraded variants. Preset returns a copy, so callers
// may mutate freely (the CLI applies flag overrides on top).
func Preset(name string) (Spec, bool) {
	switch name {
	case "single":
		// The paper's §7 testbed: two servers through one switch
		// running the unified encode pipeline.
		return Spec{
			Name: "single",
			Hosts: []HostSpec{
				{Name: "sender", MaxPPS: 500_000},
				{Name: "sink"},
			},
			Switches: []SwitchSpec{
				{Name: "sw", Ports: []PortSpec{
					{Port: 0, Role: RoleEncode, Out: 1},
					{Port: 1, Role: RoleForward, Out: 0},
				}},
			},
			Links: []LinkSpec{
				{A: "sender", B: "sw:0"},
				{A: "sw:1", B: "sink"},
			},
			Traffic: []TrafficSpec{
				{From: "sender", To: "sink", Workload: WorkloadSensor, Records: 20_000},
			},
		}, true

	case "chain3":
		// Encoder → transit → decoder: the compressed hop spans a
		// plain forwarding switch, and the sink receives restored raw
		// traffic.
		return Spec{
			Name: "chain3",
			Hosts: []HostSpec{
				{Name: "sender", MaxPPS: 500_000},
				{Name: "sink"},
			},
			Switches: []SwitchSpec{
				{Name: "enc", Ports: []PortSpec{{Port: 0, Role: RoleEncode, Out: 1}}},
				{Name: "mid", Ports: []PortSpec{{Port: 0, Role: RoleForward, Out: 1}}},
				{Name: "dec", Ports: []PortSpec{{Port: 0, Role: RoleDecode, Out: 1}}},
			},
			Links: []LinkSpec{
				{A: "sender", B: "enc:0"},
				{A: "enc:1", B: "mid:0"},
				{A: "mid:1", B: "dec:0"},
				{A: "dec:1", B: "sink"},
			},
			Traffic: []TrafficSpec{
				{From: "sender", To: "sink", Workload: WorkloadSensor, Records: 20_000},
			},
		}, true

	case "lossy-chain3":
		// The chain with a degraded compressed hop: loss, duplication,
		// reordering and queueing jitter on both transit links. The
		// learning delay must still match the control plane's model —
		// impairments slow traffic, not BfRt writes.
		spec, _ := Preset("chain3")
		spec.Name = "lossy-chain3"
		spec.Links[1].LossProb = 0.01
		spec.Links[1].ReorderProb = 0.005
		spec.Links[1].ExtraLatencyNs = 2_000
		spec.Links[2].LossProb = 0.01
		spec.Links[2].DupProb = 0.005
		spec.Links[2].ExtraLatencyNs = 2_000
		return spec, true

	case "perf":
		// Wall-clock measurement scenario: encoder → decoder with
		// high-rate repeat-heavy sensor traffic, enough records that
		// packets/sec and events/sec of the engine itself are
		// measurable. The dataplane spends the run in the steady
		// (dictionary-warm, allocation-free) state the tentpole
		// optimises.
		return Spec{
			Name: "perf",
			Hosts: []HostSpec{
				{Name: "sender", MaxPPS: 5_000_000},
				{Name: "sink"},
			},
			Switches: []SwitchSpec{
				{Name: "enc", Ports: []PortSpec{{Port: 0, Role: RoleEncode, Out: 1}}},
				{Name: "dec", Ports: []PortSpec{{Port: 0, Role: RoleDecode, Out: 1}}},
			},
			Links: []LinkSpec{
				{A: "sender", B: "enc:0"},
				{A: "enc:1", B: "dec:0"},
				{A: "dec:1", B: "sink"},
			},
			Traffic: []TrafficSpec{
				{From: "sender", To: "sink", Workload: WorkloadSensor, Records: 200_000},
			},
		}, true

	case "lossy-control":
		// The self-healing demonstration: the chain3 pipeline under a
		// hostile control plane — every fifth control message lost, and
		// the decoder power-cycles mid-stream. The reliable
		// retransmit/quarantine protocol must deliver zero stranded
		// compressed packets and re-converge to the fault-free
		// compression ratio.
		spec, _ := Preset("chain3")
		spec.Name = "lossy-control"
		spec.Faults = &netsim.FaultSpec{
			ControlLossProb: 0.2,
			Restarts: []netsim.RestartSpec{
				{Switch: "dec", AtNs: 10_000_000, DownNs: 2_000_000},
			},
		}
		return spec, true

	case "fanin":
		// Two edge encoders share one core decoder and one controller:
		// a basis learned from either sender compresses traffic from
		// both (the network-wide placement of Beirami et al.).
		return Spec{
			Name: "fanin",
			Hosts: []HostSpec{
				{Name: "senderA", MaxPPS: 300_000},
				{Name: "senderB", MaxPPS: 300_000},
				{Name: "sink"},
			},
			Switches: []SwitchSpec{
				{Name: "encA", Ports: []PortSpec{{Port: 0, Role: RoleEncode, Out: 1}}},
				{Name: "encB", Ports: []PortSpec{{Port: 0, Role: RoleEncode, Out: 1}}},
				{Name: "core", Ports: []PortSpec{
					{Port: 0, Role: RoleDecode, Out: 2},
					{Port: 1, Role: RoleDecode, Out: 2},
				}},
			},
			Links: []LinkSpec{
				{A: "senderA", B: "encA:0"},
				{A: "senderB", B: "encB:0"},
				{A: "encA:1", B: "core:0"},
				{A: "encB:1", B: "core:1"},
				{A: "core:2", B: "sink"},
			},
			Traffic: []TrafficSpec{
				{From: "senderA", To: "sink", Workload: WorkloadSensor, Records: 10_000, Seed: 100},
				{From: "senderB", To: "sink", Workload: WorkloadSensor, Records: 10_000, Seed: 100},
			},
		}, true
	case "fat-tree":
		// A k=4 fat-tree (16 hosts, 20 switches) under flow churn
		// with greedy dictionary placement: the profiling pass
		// concentrates identifier shares on the switches that actually
		// observe raw redundancy — the edge tier, since the first
		// encode point on a path converts everything to type 2/3.
		return Spec{
			Name:      "fat-tree",
			Topology:  &TopologySpec{Kind: TopoFatTree, K: 4},
			Flows:     &FlowsSpec{Count: 64},
			Placement: &PlacementSpec{Strategy: "greedy"},
		}, true

	case "fat-tree-churn":
		// Datacenter scale: a k=8 fat-tree with 32 hosts per edge
		// switch — 1024 hosts, 80 switches, 1280 links — under heavier
		// churn with edge placement. The event loop's width test.
		return Spec{
			Name:      "fat-tree-churn",
			Topology:  &TopologySpec{Kind: TopoFatTree, K: 8, HostsPerEdge: 32},
			Flows:     &FlowsSpec{Count: 128},
			Placement: &PlacementSpec{Strategy: "edge"},
		}, true
	}
	return Spec{}, false
}

// PresetNames lists the built-in scenarios in display order.
func PresetNames() []string {
	return []string{"single", "chain3", "lossy-chain3", "lossy-control", "fanin", "perf", "fat-tree", "fat-tree-churn"}
}
