package topo

import (
	"fmt"
	"math/rand"
)

// ChurnConfig parameterizes the flow-churn model: seeded flow
// arrivals over host pairs with configurable inter-arrival and
// flow-size distributions. A flow departs implicitly when its record
// budget is spent.
type ChurnConfig struct {
	// Flows is the number of flows to generate (≥ 1).
	Flows int
	// MeanInterArrivalNs is the mean of the exponential gap between
	// consecutive flow arrivals (default 50 µs).
	MeanInterArrivalNs int64
	// MeanRecords is the mean of the exponential flow-size
	// distribution, in records (default 200, minimum 1 per flow).
	MeanRecords int
	// PPS paces each flow (0 = the host generator's ceiling).
	PPS float64
	// ContentStreams bounds the number of distinct payload streams:
	// flow i draws its generator seed from stream i mod
	// ContentStreams, so flows share content — the cross-flow
	// redundancy network-wide dictionaries exist to exploit (default
	// 4).
	ContentStreams int
	// Workload names the payload generator for every flow (default
	// "sensor").
	Workload string
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.MeanInterArrivalNs == 0 {
		c.MeanInterArrivalNs = 50_000
	}
	if c.MeanRecords == 0 {
		c.MeanRecords = 200
	}
	if c.ContentStreams == 0 {
		c.ContentStreams = 4
	}
	if c.Workload == "" {
		c.Workload = "sensor"
	}
	return c
}

// Flow is one generated flow, ready to become a scenario traffic
// entry.
type Flow struct {
	From, To string
	Workload string
	StartNs  int64
	Records  int
	PPS      float64
	// Seed drives the flow's payload generator; flows in the same
	// content stream share it.
	Seed int64
}

// Churn generates cfg.Flows seeded flows over g's host pairs. Source
// and destination are uniform over hosts, redrawn so the pair never
// shares an edge switch: cross-fabric traffic traverses an encode and
// a decode point, so delivered payloads are always decompressed.
// Deterministic per (g, seed, cfg).
func Churn(g *Graph, seed int64, cfg ChurnConfig) ([]Flow, error) {
	cfg = cfg.withDefaults()
	if cfg.Flows < 1 {
		return nil, fmt.Errorf("topo: churn needs ≥ 1 flow, got %d", cfg.Flows)
	}
	if len(g.Hosts) < 2 {
		return nil, fmt.Errorf("topo: churn needs ≥ 2 hosts, got %d", len(g.Hosts))
	}
	edges := make(map[string]bool)
	for _, h := range g.Hosts {
		edges[h.Edge] = true
	}
	if len(edges) < 2 {
		return nil, fmt.Errorf("topo: churn needs hosts on ≥ 2 edge switches")
	}
	rng := rand.New(rand.NewSource(seed))
	flows := make([]Flow, 0, cfg.Flows)
	var at int64 // the first flow arrives at time zero
	for i := 0; i < cfg.Flows; i++ {
		src := g.Hosts[rng.Intn(len(g.Hosts))]
		dst := src
		for dst.Edge == src.Edge {
			dst = g.Hosts[rng.Intn(len(g.Hosts))]
		}
		records := 1 + int(rng.ExpFloat64()*float64(cfg.MeanRecords))
		stream := int64(i%cfg.ContentStreams) + 1
		flows = append(flows, Flow{
			From:     src.Name,
			To:       dst.Name,
			Workload: cfg.Workload,
			StartNs:  at,
			Records:  records,
			PPS:      cfg.PPS,
			// 104729 (a prime) spreads stream seeds; the generator
			// seed never collides with the scenario's default
			// per-flow salting.
			Seed: seed + 104729*stream,
		})
		at += int64(rng.ExpFloat64() * float64(cfg.MeanInterArrivalNs))
	}
	return flows, nil
}
