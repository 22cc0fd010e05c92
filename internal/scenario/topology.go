package scenario

import (
	"fmt"

	"zipline/internal/placement"
	"zipline/internal/topo"
	"zipline/internal/zswitch"
)

// Topology kinds accepted by TopologySpec.Kind.
const (
	TopoFatTree = "fat-tree"
	TopoISP     = "isp"
)

// DefaultProfileRecords caps each flow during the greedy placement's
// profiling pass.
const DefaultProfileRecords = 64

// defaultHostMaxPPS paces generated hosts: fast enough that churn
// runs finish quickly, slow enough that later flows overlap the
// control plane's learning delay.
const defaultHostMaxPPS = 500_000

// TopologySpec generates the scenario's hosts, switches and links
// from a parameterized graph. Expansion is deterministic: the same
// spec and seed produce the identical explicit scenario.
type TopologySpec struct {
	// Kind selects the generator: "fat-tree" or "isp".
	Kind string `json:"kind"`
	// K is the fat-tree arity (even, default 4): k pods of k/2 edge
	// and k/2 aggregation switches under (k/2)² cores.
	K int `json:"k,omitempty"`
	// HostsPerEdge sizes each edge switch's host fan-out (fat-tree
	// default K/2, ISP default 2).
	HostsPerEdge int `json:"hosts_per_edge,omitempty"`
	// Switches sizes the ISP backbone (default 12).
	Switches int `json:"switches,omitempty"`
	// EdgeFrac is the fraction of ISP switches bearing hosts (default
	// 0.5); ExtraDegree adds random chords beyond the backbone ring
	// (default 1.0).
	EdgeFrac    float64 `json:"edge_frac,omitempty"`
	ExtraDegree float64 `json:"extra_degree,omitempty"`
	// LatencyMinNs/LatencyMaxNs bound the ISP's per-link propagation
	// draw (defaults 10 µs and 500 µs).
	LatencyMinNs int64 `json:"latency_min_ns,omitempty"`
	LatencyMaxNs int64 `json:"latency_max_ns,omitempty"`
	// Seed drives the ISP graph draw (default: scenario seed).
	Seed int64 `json:"seed,omitempty"`
	// HostMaxPPS caps every generated host's traffic generator
	// (default 500,000).
	HostMaxPPS float64 `json:"host_max_pps,omitempty"`
	// LinkRateBps sizes every generated link (0 = netsim default).
	LinkRateBps int64 `json:"link_rate_bps,omitempty"`
}

// FlowsSpec generates the scenario's traffic from the flow-churn
// model: seeded flow arrivals over host pairs with exponential
// inter-arrival and flow-size distributions.
type FlowsSpec struct {
	// Count is the number of flows (default 64).
	Count int `json:"count,omitempty"`
	// MeanInterArrivalNs is the mean gap between flow arrivals
	// (default 50 µs).
	MeanInterArrivalNs int64 `json:"mean_interarrival_ns,omitempty"`
	// MeanRecords is the mean flow size in records (default 200).
	MeanRecords int `json:"mean_records,omitempty"`
	// PPS paces each flow (0 = the host generator's cap).
	PPS float64 `json:"pps,omitempty"`
	// ContentStreams bounds the distinct payload streams flows draw
	// from (default 4) — the cross-flow redundancy network-wide
	// dictionaries exploit.
	ContentStreams int `json:"content_streams,omitempty"`
	// Workload names every flow's payload generator (default
	// "sensor"; "trace" cannot be generated).
	Workload string `json:"workload,omitempty"`
	// Seed drives the churn draw (default: scenario seed).
	Seed int64 `json:"seed,omitempty"`
}

// PlacementSpec decides which generated switches encode and how the
// identifier space splits across them.
type PlacementSpec struct {
	// Strategy is "uniform", "greedy", "edge" (default) or "core".
	Strategy string `json:"strategy,omitempty"`
	// ProfileRecords caps each flow during greedy's profiling pass
	// (default 64).
	ProfileRecords int `json:"profile_records,omitempty"`
}

// validateTopology checks the topology/flows/placement blocks; the
// expanded spec gets the full structural validation afterwards.
func (s Spec) validateTopology() error {
	t := s.Topology
	switch t.Kind {
	case TopoFatTree, TopoISP:
	default:
		return fmt.Errorf("topology: unknown kind %q", t.Kind)
	}
	if p := s.Placement; p != nil {
		if p.Strategy != "" && !placement.Strategy(p.Strategy).Valid() {
			return fmt.Errorf("placement: unknown strategy %q", p.Strategy)
		}
		if p.ProfileRecords < 0 {
			return fmt.Errorf("placement: negative profile_records")
		}
	}
	if f := s.Flows; f != nil {
		if f.Count < 0 {
			return fmt.Errorf("flows: negative count")
		}
		switch f.Workload {
		case "", WorkloadRepeat, WorkloadRandom, WorkloadSensor, WorkloadDNS:
		default:
			return fmt.Errorf("flows: workload %q cannot be generated", f.Workload)
		}
	}
	return nil
}

// expandTopology materialises a topology-block spec into an explicit
// one: graph → hosts/switches/links, churn → traffic, placement plan
// → port roles, destination routes and identifier ranges. Returns the
// expanded spec plus the placement decision for the report.
func expandTopology(spec Spec) (Spec, *PlacementReport, error) {
	g, err := topoGraph(spec.Topology, spec.Seed)
	if err != nil {
		return Spec{}, nil, err
	}
	flows, err := topoFlows(g, spec)
	if err != nil {
		return Spec{}, nil, err
	}
	strategy := placement.Edge
	profileRecords := DefaultProfileRecords
	if p := spec.Placement; p != nil {
		if p.Strategy != "" {
			strategy = placement.Strategy(p.Strategy)
		}
		if p.ProfileRecords > 0 {
			profileRecords = p.ProfileRecords
		}
	}
	idBits := spec.Codec.IDBits
	if idBits == 0 {
		idBits = 15 // the dataplane's default operating point
	}
	var scores map[string]uint64
	if strategy == placement.Greedy {
		scores, err = profileScores(spec, g, flows, idBits, profileRecords)
		if err != nil {
			return Spec{}, nil, fmt.Errorf("placement profiling: %w", err)
		}
	}
	plan, err := placement.Compute(g, strategy, idBits, scores)
	if err != nil {
		return Spec{}, nil, err
	}
	out := specFromPlan(spec, g, plan, flows, true)
	rep := &PlacementReport{Strategy: string(plan.Strategy), IDBits: plan.IDBits}
	for _, sp := range plan.Switches {
		if !sp.Encode {
			continue
		}
		rep.Encoders = append(rep.Encoders, EncoderPlacement{
			Switch:         sp.Name,
			IDFirst:        sp.IDFirst,
			IDLimit:        sp.IDLimit,
			ProfileDigests: scores[sp.Name],
		})
	}
	return out, rep, nil
}

// topoGraph builds the declared graph.
func topoGraph(t *TopologySpec, seed int64) (*topo.Graph, error) {
	switch t.Kind {
	case TopoFatTree:
		k := t.K
		if k == 0 {
			k = 4
		}
		return topo.FatTree(topo.FatTreeConfig{K: k, HostsPerEdge: t.HostsPerEdge})
	case TopoISP:
		n := t.Switches
		if n == 0 {
			n = 12
		}
		s := t.Seed
		if s == 0 {
			s = seed
		}
		return topo.ISP(topo.ISPConfig{
			Switches:     n,
			EdgeFrac:     t.EdgeFrac,
			HostsPerEdge: t.HostsPerEdge,
			ExtraDegree:  t.ExtraDegree,
			LatencyMinNs: t.LatencyMinNs,
			LatencyMaxNs: t.LatencyMaxNs,
		}, s)
	}
	return nil, fmt.Errorf("topology: unknown kind %q", t.Kind)
}

// topoFlows draws the churn flows (defaults applied here so the
// profiling pass and the real run share one draw).
func topoFlows(g *topo.Graph, spec Spec) ([]topo.Flow, error) {
	f := spec.Flows
	if f == nil {
		f = &FlowsSpec{}
	}
	count := f.Count
	if count == 0 {
		count = 64
	}
	seed := f.Seed
	if seed == 0 {
		seed = spec.Seed
	}
	return topo.Churn(g, seed, topo.ChurnConfig{
		Flows:              count,
		MeanInterArrivalNs: f.MeanInterArrivalNs,
		MeanRecords:        f.MeanRecords,
		PPS:                f.PPS,
		ContentStreams:     f.ContentStreams,
		Workload:           f.Workload,
	})
}

// specFromPlan renders an explicit spec from the generated graph, the
// placement plan and the churn flows. withRanges=false omits the
// per-switch identifier ranges: the profiling pass shares one
// controller across every candidate encoder, so per-switch digest
// counts attribute cleanly without range exhaustion skewing them.
func specFromPlan(spec Spec, g *topo.Graph, plan *placement.Plan, flows []topo.Flow, withRanges bool) Spec {
	out := spec
	out.Topology, out.Flows, out.Placement = nil, nil, nil
	t := spec.Topology

	maxPPS := t.HostMaxPPS
	if maxPPS == 0 {
		maxPPS = defaultHostMaxPPS
	}
	out.Hosts = make([]HostSpec, len(g.Hosts))
	for i, h := range g.Hosts {
		out.Hosts[i] = HostSpec{Name: h.Name, MaxPPS: maxPPS}
	}

	out.Switches = make([]SwitchSpec, len(g.Switches))
	for i, sw := range g.Switches {
		sp := plan.Switches[i] // plan is in graph switch order
		ss := SwitchSpec{Name: sw.Name}
		for j, p := range sw.Ports {
			ss.Ports = append(ss.Ports, PortSpec{
				Port: p.Num,
				Role: sp.Roles[j].Role.String(),
				Out:  p.Num, // ignored: Routes forward by destination
			})
		}
		for _, r := range sw.Routes {
			ss.Routes = append(ss.Routes, RouteSpec{Dst: r.Dst, Out: r.Out})
		}
		if withRanges && sp.Encode {
			ss.IDFirst, ss.IDLimit = sp.IDFirst, sp.IDLimit
		}
		out.Switches[i] = ss
	}

	out.Links = make([]LinkSpec, len(g.Links))
	for i, l := range g.Links {
		out.Links[i] = LinkSpec{
			A:             l.A,
			B:             l.B,
			RateBps:       t.LinkRateBps,
			PropagationNs: l.PropagationNs,
		}
	}

	out.Traffic = make([]TrafficSpec, len(flows))
	for i, f := range flows {
		out.Traffic[i] = TrafficSpec{
			From:     f.From,
			To:       f.To,
			Workload: f.Workload,
			Records:  f.Records,
			PPS:      f.PPS,
			StartNs:  f.StartNs,
			Seed:     f.Seed,
		}
	}
	return out
}

// profileScores runs the truncated profiling pass greedy placement
// weighs shares by: the same topology under the uniform candidate
// placement (greedy without a signal), every flow capped at
// profileRecords, one controller spanning all candidates. Only the
// first encode point on a path ever sees raw frames — everything
// downstream arrives as type 2/3 — so the digest counts land exactly
// where raw redundancy is observed. Deterministic per spec.
func profileScores(spec Spec, g *topo.Graph, flows []topo.Flow, idBits, profileRecords int) (map[string]uint64, error) {
	plan, err := placement.Compute(g, placement.Greedy, idBits, nil)
	if err != nil {
		return nil, err
	}
	short := make([]topo.Flow, len(flows))
	copy(short, flows)
	for i := range short {
		if short[i].Records > profileRecords {
			short[i].Records = profileRecords
		}
	}
	pspec := specFromPlan(spec, g, plan, short, false)
	pspec.Name = spec.Name + "-profile"
	pspec.Faults = nil
	sc, err := Build(pspec)
	if err != nil {
		return nil, err
	}
	sc.Run()
	scores := make(map[string]uint64, len(plan.Switches))
	for _, sp := range plan.Switches {
		if sp.Encode {
			scores[sp.Name] = zswitch.ReadStats(sc.pipes[sp.Name]).Digests
		}
	}
	return scores, nil
}
