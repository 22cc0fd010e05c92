package experiments

import (
	"zipline/internal/gd"
	"zipline/internal/packet"
	"zipline/internal/scenario"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

// fixture is the paper's §7 testbed as the smallest scenario spec:
// servers "sender" and "sink" around one switch "sw" that applies
// role to the traffic arriving from the sender on port 0. Every
// figure runs on it, so internal/scenario is the only place a switch,
// its links, hosts and control plane are wired together.
func fixture(name string, seed int64, role string, senderPPS float64) scenario.Spec {
	return scenario.Spec{
		Name: name,
		Seed: seed,
		Hosts: []scenario.HostSpec{
			{Name: "sender", MaxPPS: senderPPS},
			{Name: "sink"},
		},
		Switches: []scenario.SwitchSpec{{Name: "sw", Ports: []scenario.PortSpec{
			{Port: 0, Role: role, Out: 1},
			{Port: 1, Out: 0},
		}}},
		Links: []scenario.LinkSpec{
			{A: "sender", B: "sw:0"},
			{A: "sw:1", B: "sink"},
		},
	}
}

// buildFixed builds spec with the control plane silenced, for the
// measurements that fix the switch's tables: they hold only what the
// caller preloads through sc.Pipeline("sw"). The digest tap is
// replaced rather than cleared so the digests an encoder raises for
// unknown bases are still drained, not queued for the whole run.
func buildFixed(spec scenario.Spec) (*scenario.Scenario, error) {
	sc, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	sc.Switch("sw").OnDigest = func([]tofino.Digest) {}
	return sc, nil
}

// switchCodec returns the GD codec the fixture's switch runs.
func switchCodec(sc *scenario.Scenario) *gd.Codec {
	return sc.Pipeline("sw").Program().(*zswitch.Program).Codec()
}

// stream has the sender offer payloads(i), one raw frame each, until
// it returns nil, and runs the built fixture to its end.
func stream(sc *scenario.Scenario, payloads func(i int) []byte) scenario.Report {
	hdr := packet.Header{Dst: sc.MAC("sink"), Src: sc.MAC("sender"), EtherType: packet.EtherTypeRaw}
	sc.Host("sender").Stream(0, 0, func(i uint64) []byte {
		p := payloads(int(i))
		if p == nil {
			return nil
		}
		sc.CountOffered(1, uint64(len(p)))
		return packet.Frame(hdr, p)
	})
	return sc.Run()
}
