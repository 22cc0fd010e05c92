package placement

import (
	"reflect"
	"testing"

	"zipline/internal/topo"
	"zipline/internal/zswitch"
)

func fatTree(t *testing.T, k int) *topo.Graph {
	t.Helper()
	g, err := topo.FatTree(topo.FatTreeConfig{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// byName indexes a plan's switches.
func byName(p *Plan) map[string]SwitchPlan {
	m := make(map[string]SwitchPlan, len(p.Switches))
	for _, sp := range p.Switches {
		m[sp.Name] = sp
	}
	return m
}

func TestUniformCoversAllTiersEvenly(t *testing.T) {
	g := fatTree(t, 4)
	p, err := Compute(g, Uniform, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(p.Encoders()), len(g.Switches); got != want {
		t.Fatalf("uniform placed %d encoders, want every switch (%d)", got, want)
	}
	// Ranges must partition [0, 2^8) without gaps or overlap, in
	// switch order.
	next := uint32(0)
	for _, sp := range p.Switches {
		if sp.IDFirst != next {
			t.Fatalf("switch %s range starts at %d, want %d", sp.Name, sp.IDFirst, next)
		}
		if sp.IDLimit <= sp.IDFirst {
			t.Fatalf("switch %s has empty range", sp.Name)
		}
		next = sp.IDLimit
	}
	if next != 256 {
		t.Fatalf("ranges cover [0,%d), want [0,256)", next)
	}
}

func TestEdgeAndCoreRestrictEncoders(t *testing.T) {
	g := fatTree(t, 4)
	tiers := make(map[string]topo.Tier)
	for _, sw := range g.Switches {
		tiers[sw.Name] = sw.Tier
	}
	edgePlan, err := Compute(g, Edge, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range edgePlan.Encoders() {
		if tiers[name] != topo.TierEdge {
			t.Errorf("edge strategy placed encoder on %s tier %v", name, tiers[name])
		}
	}
	corePlan, err := Compute(g, Core, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range corePlan.Encoders() {
		if tiers[name] != topo.TierCore {
			t.Errorf("core strategy placed encoder on %s tier %v", name, tiers[name])
		}
	}
}

func TestEveryEdgeDecodesFabricIngress(t *testing.T) {
	g := fatTree(t, 4)
	dirs := make(map[string]map[int]topo.Dir)
	for _, sw := range g.Switches {
		dirs[sw.Name] = make(map[int]topo.Dir)
		for _, p := range sw.Ports {
			dirs[sw.Name][p.Num] = p.Dir
		}
	}
	for _, s := range Strategies() {
		p, err := Compute(g, s, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range g.Switches {
			if sw.Tier != topo.TierEdge {
				continue
			}
			sp := byName(p)[sw.Name]
			for _, pr := range sp.Roles {
				if dirs[sw.Name][pr.Port] != topo.DirHost && pr.Role != zswitch.RoleDecode {
					t.Errorf("%s: edge %s port %d role %v, want decode", s, sw.Name, pr.Port, pr.Role)
				}
			}
		}
	}
}

func TestGreedyConcentratesByScore(t *testing.T) {
	g := fatTree(t, 4)
	// Signal: only edge switches saw digests (what a profiling run
	// produces — deeper tiers only see already-compressed frames).
	scores := make(map[string]uint64)
	for _, sw := range g.Switches {
		if sw.Tier == topo.TierEdge {
			scores[sw.Name] = 100
		}
	}
	p, err := Compute(g, Greedy, 8, scores)
	if err != nil {
		t.Fatal(err)
	}
	tiers := make(map[string]topo.Tier)
	for _, sw := range g.Switches {
		tiers[sw.Name] = sw.Tier
	}
	total := uint32(0)
	for _, name := range p.Encoders() {
		if tiers[name] != topo.TierEdge {
			t.Errorf("greedy kept zero-signal encoder %s", name)
		}
	}
	for _, sp := range p.Switches {
		total += sp.IDLimit - sp.IDFirst
	}
	if total != 256 {
		t.Errorf("greedy shares total %d, want 256", total)
	}
	// Weighted: one switch with double signal gets roughly double.
	scores["e0-0"] = 200
	p2, err := Compute(g, Greedy, 8, scores)
	if err != nil {
		t.Fatal(err)
	}
	m := byName(p2)
	big := m["e0-0"].IDLimit - m["e0-0"].IDFirst
	small := m["e0-1"].IDLimit - m["e0-1"].IDFirst
	if big <= small {
		t.Errorf("share(e0-0)=%d not above share(e0-1)=%d despite double signal", big, small)
	}
}

func TestGreedyWithoutSignalDegradesToUniform(t *testing.T) {
	g := fatTree(t, 4)
	greedy, err := Compute(g, Greedy, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Compute(g, Uniform, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	greedy.Strategy = uniform.Strategy
	if !reflect.DeepEqual(greedy, uniform) {
		t.Fatal("signal-free greedy plan differs from uniform")
	}
}

func TestScarceIdentifiersDropEncoders(t *testing.T) {
	g := fatTree(t, 4) // 20 switches, all uniform candidates
	p, err := Compute(g, Uniform, 4, nil)
	if err != nil {
		t.Fatal(err) // 16 identifiers across 20 switches
	}
	if n := len(p.Encoders()); n == 0 || n > 16 {
		t.Fatalf("encoders = %d, want 1..16", n)
	}
	for _, sp := range p.Switches {
		if sp.Encode && sp.IDLimit == sp.IDFirst {
			t.Errorf("encoder %s kept an empty range", sp.Name)
		}
		if !sp.Encode {
			for _, pr := range sp.Roles {
				if pr.Role == zswitch.RoleEncode {
					t.Errorf("demoted switch %s kept encode port %d", sp.Name, pr.Port)
				}
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	g, err := topo.ISP(topo.ISPConfig{Switches: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		a, err := Compute(g, s, 10, map[string]uint64{"s0": 5})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Compute(g, s, 10, map[string]uint64{"s0": 5})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s plan is not deterministic", s)
		}
	}
}
