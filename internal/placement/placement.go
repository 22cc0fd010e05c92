package placement

import (
	"fmt"

	"zipline/internal/topo"
	"zipline/internal/zswitch"
)

// Strategy names a dictionary-placement policy.
type Strategy string

// Placement strategies.
const (
	Uniform Strategy = "uniform"
	Greedy  Strategy = "greedy"
	Edge    Strategy = "edge"
	Core    Strategy = "core"
)

// Strategies lists the valid strategy names in display order.
func Strategies() []Strategy { return []Strategy{Uniform, Greedy, Edge, Core} }

// Valid reports whether s names a known strategy.
func (s Strategy) Valid() bool {
	for _, k := range Strategies() {
		if s == k {
			return true
		}
	}
	return false
}

// PortRole assigns a role to one ingress port.
type PortRole struct {
	Port int
	Role zswitch.Role
}

// SwitchPlan is one switch's slice of the plan: per-port roles in the
// graph's port order, and — when the switch encodes — its half-open
// identifier range [IDFirst, IDLimit), its dictionary capacity share.
type SwitchPlan struct {
	Name    string
	Encode  bool
	Roles   []PortRole
	IDFirst uint32
	IDLimit uint32
}

// Plan is a complete placement decision over a graph, switches in the
// graph's order.
type Plan struct {
	Strategy Strategy
	IDBits   int
	Switches []SwitchPlan
}

// Encoders returns the names of switches holding an encode role, in
// plan order.
func (p *Plan) Encoders() []string {
	var names []string
	for _, sp := range p.Switches {
		if sp.Encode {
			names = append(names, sp.Name)
		}
	}
	return names
}

// candidate reports whether a port is an encode candidate for the
// full (uniform/greedy) placement: edge switches compress what their
// hosts send, deeper tiers compress whatever reaches them raw.
func candidate(tier topo.Tier, dir topo.Dir) bool {
	switch tier {
	case topo.TierEdge:
		return dir == topo.DirHost
	case topo.TierAgg:
		return dir == topo.DirDown
	case topo.TierCore:
		return true
	}
	return false
}

// Compute maps a graph and strategy to a plan. idBits sizes the
// global identifier space at 2^idBits. scores carries the per-switch
// redundancy signal (observed digest counts) that Greedy weighs
// shares by; the other strategies ignore it. A Greedy plan without
// scores (nil or all-zero) degrades to the uniform weighting, so the
// profiling run itself can be built with the same code path.
func Compute(g *topo.Graph, s Strategy, idBits int, scores map[string]uint64) (*Plan, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("placement: unknown strategy %q", s)
	}
	if idBits < 1 || idBits > 24 {
		return nil, fmt.Errorf("placement: idBits %d out of range [1,24]", idBits)
	}
	plan := &Plan{Strategy: s, IDBits: idBits}

	// Pass 1: roles. Decode is strategy-independent (edge fabric
	// ingress); encode candidacy depends on the strategy.
	encodes := func(sw topo.Switch, p topo.Port) bool {
		switch s {
		case Uniform, Greedy:
			return candidate(sw.Tier, p.Dir)
		case Edge:
			return sw.Tier == topo.TierEdge && p.Dir == topo.DirHost
		case Core:
			return sw.Tier == topo.TierCore
		}
		return false
	}
	for _, sw := range g.Switches {
		sp := SwitchPlan{Name: sw.Name}
		for _, p := range sw.Ports {
			role := zswitch.RoleForward
			switch {
			case sw.Tier == topo.TierEdge && p.Dir != topo.DirHost:
				role = zswitch.RoleDecode
			case encodes(sw, p):
				role = zswitch.RoleEncode
				sp.Encode = true
			}
			sp.Roles = append(sp.Roles, PortRole{Port: p.Num, Role: role})
		}
		plan.Switches = append(plan.Switches, sp)
	}

	// Pass 2: weights per encoding switch. Greedy weighs by observed
	// redundancy and drops zero-signal encoders; everything else is
	// even. An all-zero greedy signal degrades to even weighting.
	weights := make([]uint64, len(plan.Switches))
	anySignal := false
	for i, sp := range plan.Switches {
		if !sp.Encode {
			continue
		}
		if s == Greedy && scores != nil {
			weights[i] = scores[sp.Name]
			if weights[i] > 0 {
				anySignal = true
			}
		} else {
			weights[i] = 1
		}
	}
	if s == Greedy && !anySignal {
		for i, sp := range plan.Switches {
			if sp.Encode {
				weights[i] = 1
			}
		}
	}

	// Pass 3: split the identifier space by largest-remainder
	// rounding, ranges assigned contiguously in switch order. A
	// switch whose share rounds to zero loses its encode role: a
	// zero-capacity encoder would digest forever and never learn.
	shares := split(1<<uint(idBits), weights)
	next := uint32(0)
	for i := range plan.Switches {
		sp := &plan.Switches[i]
		if !sp.Encode {
			continue
		}
		if shares[i] == 0 {
			sp.Encode = false
			for j, pr := range sp.Roles {
				if pr.Role == zswitch.RoleEncode {
					sp.Roles[j].Role = zswitch.RoleForward
				}
			}
			continue
		}
		sp.IDFirst = next
		sp.IDLimit = next + uint32(shares[i])
		next = sp.IDLimit
	}
	if len(plan.Encoders()) == 0 {
		return nil, fmt.Errorf("placement: strategy %q places no encoders on %s", s, g.Kind)
	}
	return plan, nil
}

// split divides n identifiers proportionally to weights using
// largest-remainder rounding; ties break toward the lower index.
// Zero-weight entries get zero.
func split(n int, weights []uint64) []int {
	out := make([]int, len(weights))
	var total uint64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return out
	}
	type rem struct {
		idx  int
		frac uint64 // remainder numerator, larger = earlier claim
	}
	rems := make([]rem, 0, len(weights))
	used := 0
	for i, w := range weights {
		if w == 0 {
			continue
		}
		q := uint64(n) * w
		out[i] = int(q / total)
		used += out[i]
		rems = append(rems, rem{idx: i, frac: q % total})
	}
	// Hand the leftover identifiers to the largest remainders; the
	// insertion-order scan with strict > keeps index order on ties.
	for n-used > 0 {
		best := -1
		for j, r := range rems {
			if best < 0 || r.frac > rems[best].frac {
				best = j
			}
		}
		out[rems[best].idx]++
		rems[best].frac = 0
		used++
	}
	return out
}
