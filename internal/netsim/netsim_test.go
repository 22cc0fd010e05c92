package netsim

import (
	"math/rand"
	"sort"
	"testing"

	"zipline/internal/packet"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	// Same timestamp: FIFO.
	s.At(20, func() { order = append(order, 4) })
	s.Run()
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %d", s.Now())
	}
}

// TestEventOrderDifferential checks the event heap against the order
// it must implement: a few thousand At/After calls on a coarse
// timestamp grid (so most events tie), a third of them scheduled from
// inside running events, with RunUntil cuts in between. The executed
// order must equal a stable sort of the schedule log by timestamp
// (stable = by scheduling sequence), and Pending/Scheduled must agree
// with the log at every cut.
func TestEventOrderDifferential(t *testing.T) {
	const budget = 4000
	rng := rand.New(rand.NewSource(7))
	s := NewSim(1)
	var log []Time // log[i]: timestamp of the i-th scheduled event
	var ran []int  // indices into log, in execution order

	var schedule func()
	schedule = func() {
		i := len(log)
		d := Time(rng.Intn(8)) * 10
		log = append(log, s.Now()+d)
		fn := func() {
			ran = append(ran, i)
			if log[i] != s.Now() {
				t.Fatalf("event %d scheduled for %d ran at %d", i, log[i], s.Now())
			}
			for k := rng.Intn(3); k > 0 && len(log) < budget && rng.Intn(2) == 0; k-- {
				schedule()
			}
		}
		if rng.Intn(2) == 0 {
			s.After(d, fn)
		} else {
			s.At(s.Now()+d, fn)
		}
	}
	check := func(deadline Time) {
		t.Helper()
		if got := s.Scheduled(); got != uint64(len(log)) {
			t.Fatalf("Scheduled = %d, log has %d", got, len(log))
		}
		if got := s.Pending(); got != len(log)-len(ran) {
			t.Fatalf("Pending = %d, want %d", got, len(log)-len(ran))
		}
		done := make([]bool, len(log))
		for _, i := range ran {
			done[i] = true
		}
		for i, at := range log {
			if done[i] != (at <= deadline) {
				t.Fatalf("cut at %d: event %d (at %d) ran=%v", deadline, i, at, done[i])
			}
		}
	}

	for len(log) < budget {
		for k := 0; k < 150 && len(log) < budget; k++ {
			schedule()
		}
		deadline := s.Now() + Time(rng.Intn(60))
		s.RunUntil(deadline)
		check(deadline)
	}
	s.Run()
	check(s.Now())

	want := make([]int, len(log))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return log[want[a]] < log[want[b]] })
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("execution diverges from (at, seq) order at position %d: ran event %d, want %d", i, ran[i], want[i])
		}
	}
}

func TestSchedulingPastPanics(t *testing.T) {
	s := NewSim(1)
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := NewSim(1)
	fired := 0
	s.At(10, func() { fired++ })
	s.At(20, func() { fired++ })
	s.RunUntil(15)
	if fired != 1 || s.Now() != 15 || s.Pending() != 1 {
		t.Fatalf("fired=%d now=%d pending=%d", fired, s.Now(), s.Pending())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired=%d", fired)
	}
}

func TestJitterBounds(t *testing.T) {
	s := NewSim(7)
	for i := 0; i < 1000; i++ {
		d := s.Jitter(1000, 0.1)
		if d < 900 || d > 1100 {
			t.Fatalf("jitter %d outside ±10%%", d)
		}
	}
	if s.Jitter(0, 0.5) != 0 || s.Jitter(1000, 0) != 1000 {
		t.Fatal("degenerate jitter broken")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := NewSim(42)
		var out []Time
		for i := 0; i < 50; i++ {
			s.After(s.Jitter(1000, 0.2), func() { out = append(out, s.Now()) })
		}
		s.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestLinkSerializationAndQueueing(t *testing.T) {
	s := NewSim(1)
	a, b := NewLink(s, LinkConfig{RateBps: 1_000_000_000}, "a", "b") // 1 Gbit/s
	var arrivals []Time
	b.SetReceiver(func(frame []byte, at Time) { arrivals = append(arrivals, at) })

	// 100-byte frame: (100+24)*8 = 992 ns serialization + 5 ns prop.
	frame := make([]byte, 100)
	s.At(0, func() {
		a.Send(frame)
		a.Send(frame) // queues behind the first
	})
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 997 {
		t.Fatalf("first arrival = %d, want 997", arrivals[0])
	}
	if arrivals[1] != 997+992 {
		t.Fatalf("second arrival = %d, want %d (queued)", arrivals[1], 997+992)
	}
	if a.TxFrames != 2 || a.TxBytes != 200 {
		t.Fatalf("tx stats = %d frames %d bytes", a.TxFrames, a.TxBytes)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	s := NewSim(1)
	a, b := NewLink(s, LinkConfig{RateBps: 1_000_000_000}, "a", "b")
	var atA, atB Time
	a.SetReceiver(func(_ []byte, at Time) { atA = at })
	b.SetReceiver(func(_ []byte, at Time) { atB = at })
	s.At(0, func() {
		a.Send(make([]byte, 100))
		b.Send(make([]byte, 100)) // opposite direction: no queueing
	})
	s.Run()
	if atA != atB || atA != 997 {
		t.Fatalf("duplex broken: %d %d", atA, atB)
	}
}

// noopProgram forwards port 0 <-> 1 unconditionally.
type noopProgram struct{}

func (noopProgram) Name() string            { return "noop" }
func (noopProgram) Tables() []*tofino.Table { return nil }
func (noopProgram) Process(ctx *tofino.Ctx, frame []byte, in tofino.Port, out []tofino.Emit) []tofino.Emit {
	return append(out, tofino.Emit{Port: in ^ 1, Frame: frame})
}

// buildHostSwitchHost wires host A — switch — host B and returns them.
func buildHostSwitchHost(t *testing.T, s *Sim, prog tofino.Program, hostCfg HostConfig) (*Host, *Switch, *Host) {
	t.Helper()
	pl, err := tofino.Load(tofino.Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(s, SwitchConfig{Name: "sw"}, pl)
	aNIC, swA := NewLink(s, LinkConfig{}, "hostA", "sw:0")
	bNIC, swB := NewLink(s, LinkConfig{}, "hostB", "sw:1")
	cfgA, cfgB := hostCfg, hostCfg
	cfgA.Name, cfgB.Name = "A", "B"
	ha := NewHost(s, cfgA, aNIC)
	hb := NewHost(s, cfgB, bNIC)
	sw.AttachPort(0, swA)
	sw.AttachPort(1, swB)
	return ha, sw, hb
}

func TestEndToEndForwarding(t *testing.T) {
	s := NewSim(1)
	ha, _, hb := buildHostSwitchHost(t, s, noopProgram{}, HostConfig{})
	frame := packet.Frame(packet.Header{EtherType: packet.EtherTypeRaw}, make([]byte, 50))
	var rtt Time
	sent := Time(0)
	hb.OnReceive = func(f []byte, at Time) { rtt = at - sent }
	s.At(0, func() { ha.Send(frame) })
	s.Run()
	if hb.Rx().Frames != 1 {
		t.Fatalf("rx = %+v", hb.Rx())
	}
	// One-way: ~1.5µs tx + ~5ns wire + ~600ns pipe + ~5ns + ~1.5µs rx.
	if rtt < 3*Microsecond || rtt > 5*Microsecond {
		t.Fatalf("one-way latency %d ns outside plausible band", rtt)
	}
	if hb.Rx().TypeFrames[packet.TypeRaw] != 1 {
		t.Fatalf("type buckets = %+v", hb.Rx().TypeFrames)
	}
}

func TestStreamGeneratorCeiling(t *testing.T) {
	// 7 Mpkt/s generator, 64-byte frames, 10 ms: about 70k frames
	// must arrive — the Figure 4 small-frame bottleneck.
	s := NewSim(1)
	ha, _, hb := buildHostSwitchHost(t, s, noopProgram{}, HostConfig{MaxPPS: 7_000_000})
	frame := packet.Frame(packet.Header{EtherType: packet.EtherTypeRaw}, make([]byte, 50))
	ha.Stream(0, 10*Millisecond, func(i uint64) []byte { return frame })
	s.Run()
	got := hb.Rx().Frames
	if got < 69_000 || got > 71_000 {
		t.Fatalf("frames = %d, want ≈70000", got)
	}
}

func TestStreamLineRateCeiling(t *testing.T) {
	// 9000-byte frames with no pps cap: line rate (100 Gbit/s over
	// 9024 wire bytes → ≈1.385 Mpkt/s → ≈13856 frames in 10 ms).
	s := NewSim(1)
	ha, _, hb := buildHostSwitchHost(t, s, noopProgram{}, HostConfig{})
	frame := packet.Frame(packet.Header{EtherType: packet.EtherTypeRaw}, make([]byte, 9000-packet.HeaderLen))
	ha.Stream(0, 10*Millisecond, func(i uint64) []byte { return frame })
	s.Run()
	got := hb.Rx().Frames
	if got < 13_600 || got > 14_100 {
		t.Fatalf("frames = %d, want ≈13856", got)
	}
	// Goodput in frame bytes: ≈99.7 Gbit/s.
	gbps := float64(hb.Rx().FrameBytes) * 8 / float64(10*Millisecond)
	if gbps < 98 || gbps > 100 {
		t.Fatalf("throughput = %.1f Gbit/s", gbps)
	}
}

func TestStreamStopsOnNil(t *testing.T) {
	s := NewSim(1)
	ha, _, hb := buildHostSwitchHost(t, s, noopProgram{}, HostConfig{})
	frame := packet.Frame(packet.Header{EtherType: packet.EtherTypeRaw}, make([]byte, 50))
	ha.Stream(0, 0 /* no deadline */, func(i uint64) []byte {
		if i == 5 {
			return nil
		}
		return frame
	})
	s.Run()
	if hb.Rx().Frames != 5 {
		t.Fatalf("frames = %d, want 5", hb.Rx().Frames)
	}
}

func TestSwitchDigestTap(t *testing.T) {
	s := NewSim(1)
	prog, err := zswitch.New(zswitch.Config{
		Roles:   map[tofino.Port]zswitch.Role{0: zswitch.RoleEncode},
		PortMap: map[tofino.Port]tofino.Port{0: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ha, sw, hb := buildHostSwitchHost(t, s, prog, HostConfig{})
	var digests [][]byte
	sw.OnDigest = func(ds []tofino.Digest) {
		for _, d := range ds {
			digests = append(digests, append([]byte(nil), d.Data...)) // views die with the next packet
		}
	}
	payload := make([]byte, 32)
	payload[0] = 0xAB
	frame := packet.Frame(packet.Header{EtherType: packet.EtherTypeRaw}, payload)
	s.At(0, func() { ha.Send(frame) })
	s.Run()
	if basisBytes := (prog.Codec().BasisBits() + 7) / 8; len(digests) != 1 || len(digests[0]) != basisBytes {
		t.Fatalf("digests = %x, want one %d-byte basis", digests, basisBytes)
	}
	if hb.Rx().TypeFrames[packet.TypeUncompressed] != 1 {
		t.Fatalf("rx types = %+v", hb.Rx().TypeFrames)
	}
	if hb.Rx().FirstArrival[packet.TypeUncompressed] < 0 {
		t.Fatal("first-arrival timestamp missing")
	}
}

func TestLinkLoss(t *testing.T) {
	s := NewSim(5)
	a, b := NewLink(s, LinkConfig{Impair: Impairments{LossProb: 0.3}}, "a", "b")
	var got int
	b.SetReceiver(func(_ []byte, _ Time) { got++ })
	const n = 10_000
	frame := make([]byte, 64)
	for i := 0; i < n; i++ {
		s.At(Time(i)*Microsecond, func() { a.Send(frame) })
	}
	s.Run()
	if got+int(a.Stats.Lost) != n {
		t.Fatalf("delivered %d + lost %d != sent %d", got, a.Stats.Lost, n)
	}
	if a.Stats.Lost < 2_700 || a.Stats.Lost > 3_300 {
		t.Fatalf("lost %d of %d, want ≈30%%", a.Stats.Lost, n)
	}
}

func TestLinkDuplication(t *testing.T) {
	s := NewSim(6)
	a, b := NewLink(s, LinkConfig{Impair: Impairments{DupProb: 1}}, "a", "b")
	var got int
	b.SetReceiver(func(_ []byte, _ Time) { got++ })
	frame := make([]byte, 64)
	s.At(0, func() { a.Send(frame) })
	s.Run()
	if got != 2 || a.Stats.Duplicated != 1 {
		t.Fatalf("delivered %d (dups %d), want 2 (1)", got, a.Stats.Duplicated)
	}
}

func TestLinkReordering(t *testing.T) {
	// First frame held back by 5 µs; the second, sent right after,
	// must overtake it.
	s := NewSim(7)
	a, b := NewLink(s, LinkConfig{Impair: Impairments{ReorderProb: 1}}, "a", "b")
	var order []byte
	b.SetReceiver(func(f []byte, _ Time) { order = append(order, f[0]) })
	s.At(0, func() { a.Send([]byte{1}) })
	s.At(10, func() {
		// Disable reordering for the chaser so only frame 1 is held.
		a.cfg.Impair.ReorderProb = 0
		a.Send([]byte{2})
	})
	s.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("arrival order = %v, want [2 1]", order)
	}
	if a.Stats.Reordered != 1 {
		t.Fatalf("reordered = %d", a.Stats.Reordered)
	}
}

func TestImpairedLinkDeterminism(t *testing.T) {
	run := func() (uint64, []Time) {
		s := NewSim(99)
		a, b := NewLink(s, LinkConfig{Impair: Impairments{
			LossProb: 0.1, DupProb: 0.1, ReorderProb: 0.1, ExtraLatencyNs: 3 * Microsecond,
		}}, "a", "b")
		var arrivals []Time
		b.SetReceiver(func(_ []byte, at Time) { arrivals = append(arrivals, at) })
		frame := make([]byte, 128)
		for i := 0; i < 500; i++ {
			s.At(Time(i)*Microsecond, func() { a.Send(frame) })
		}
		s.Run()
		return a.Stats.Lost, arrivals
	}
	lostA, arrA := run()
	lostB, arrB := run()
	if lostA != lostB || len(arrA) != len(arrB) {
		t.Fatalf("impaired runs diverged: lost %d vs %d, arrivals %d vs %d",
			lostA, lostB, len(arrA), len(arrB))
	}
	for i := range arrA {
		if arrA[i] != arrB[i] {
			t.Fatalf("arrival %d: %d vs %d", i, arrA[i], arrB[i])
		}
	}
}

func TestAttachPortValidation(t *testing.T) {
	s := NewSim(1)
	pl, _ := tofino.Load(tofino.Config{}, noopProgram{})
	sw := NewSwitch(s, SwitchConfig{}, pl)
	_, e := NewLink(s, LinkConfig{}, "x", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad port")
		}
	}()
	sw.AttachPort(99, e)
}
