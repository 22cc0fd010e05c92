package topo

import "fmt"

// Tier classifies a switch's position in the topology. Placement
// strategies key on it.
type Tier int

// Switch tiers. Edge switches bear hosts; core switches sit deepest
// in the fabric; agg is the fat-tree middle tier (unused by ISP
// graphs).
const (
	TierEdge Tier = iota
	TierAgg
	TierCore
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierEdge:
		return "edge"
	case TierAgg:
		return "agg"
	case TierCore:
		return "core"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Dir is a switch port's facing: toward a host, toward the hosts
// (down), or toward the core (up).
type Dir int

// Port directions.
const (
	DirHost Dir = iota
	DirDown
	DirUp
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case DirHost:
		return "host"
	case DirDown:
		return "down"
	case DirUp:
		return "up"
	default:
		return fmt.Sprintf("dir(%d)", int(d))
	}
}

// Port is one switch port and its facing.
type Port struct {
	Num int
	Dir Dir
}

// Route forwards traffic for one destination host out of one port.
type Route struct {
	Dst string // destination host name
	Out int    // egress port
}

// Switch is one generated switch: tier label, ports with facings, and
// a complete destination-based routing table (one Route per host in
// the graph, in global host order).
type Switch struct {
	Name   string
	Tier   Tier
	Ports  []Port
	Routes []Route
}

// Host is one generated host and its attachment point.
type Host struct {
	Name string
	Edge string // attached edge switch
	Port int    // the edge switch port it wires to
}

// Link wires two attachment points, in the scenario engine's endpoint
// syntax: a bare host name or "switch:port".
type Link struct {
	A, B          string
	PropagationNs int64
}

// Graph is a generated topology.
type Graph struct {
	// Kind records the generator and parameters ("fat-tree:k=4").
	Kind     string
	Hosts    []Host
	Switches []Switch
	Links    []Link
}
