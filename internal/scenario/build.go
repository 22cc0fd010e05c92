package scenario

import (
	"fmt"
	"math/rand"

	"zipline/internal/controlplane"
	"zipline/internal/netsim"
	"zipline/internal/packet"
	"zipline/internal/tofino"
	"zipline/internal/trace"
	"zipline/internal/zswitch"
)

// builtLink keeps both directions of a wired link for reporting.
type builtLink struct {
	aName, bName string
	a, b         *netsim.Endpoint
}

// Scenario is a built, runnable simulation. Build wires everything
// and schedules the declared traffic; Run executes and reports.
// Experiments needing bespoke traffic or measurement can reach the
// components through Host, Switch and Pipeline before calling Run.
type Scenario struct {
	Spec Spec
	Sim  *netsim.Sim
	// Ctl is the shared control plane, nil when no port has the
	// encode role. Identifier-ranged builds run one controller per
	// encoding switch; Ctl is then the first (spec order) and ctls
	// holds them all.
	Ctl *controlplane.Controller

	ctls []*controlplane.Controller
	// placement records the topology expansion's dictionary placement
	// (nil for explicitly-declared scenarios).
	placement *PlacementReport

	hosts    map[string]*netsim.Host
	macs     map[string]packet.MAC
	switches map[string]*netsim.Switch
	pipes    map[string]*tofino.Pipeline
	prog     *zswitch.Program // first switch's program (shared codec config)
	encNames []string         // switches with an encode-role port, spec order
	links    []builtLink

	offeredFrames  uint64
	offeredPayload uint64

	// faults is the armed fault injector (nil in fault-free runs);
	// faultSpec is the schedule with defaults applied.
	faults    *netsim.Faults
	faultSpec netsim.FaultSpec
}

// Build validates the spec and wires the simulation. The returned
// scenario has all declared traffic scheduled but not yet run.
func Build(spec Spec) (*Scenario, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	var placeRep *PlacementReport
	if spec.Topology != nil {
		var err error
		spec, placeRep, err = expandTopology(spec)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
		}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %q: expanded: %w", spec.Name, err)
		}
	}
	sc := &Scenario{
		Spec:     spec,
		Sim:      netsim.NewSim(spec.Seed),
		hosts:    make(map[string]*netsim.Host),
		macs:     make(map[string]packet.MAC),
		switches: make(map[string]*netsim.Switch),
		pipes:    make(map[string]*tofino.Pipeline),
	}
	sc.placement = placeRep
	if spec.Faults.Armed() {
		sc.faultSpec = spec.Faults.WithDefaults()
		// The injector's seed derives from the scenario seed so fault
		// runs are reproducible, but its draws come from a separate
		// stream so arming faults never perturbs the sim's jitter.
		sc.faults = netsim.NewFaults(spec.Seed ^ faultSeedSalt)
	}

	// Host MACs first: switch destination routes resolve against them.
	// The 24-bit index keeps addresses unique for topology-scale host
	// counts and is byte-identical to the old single-byte scheme for
	// the first 255 hosts.
	for i, h := range spec.Hosts {
		n := i + 1
		sc.macs[h.Name] = packet.MAC{0x02, 0x5A, 0x00, byte(n >> 16), byte(n >> 8), byte(n)}
	}

	// Switch programs and pipelines, in spec order.
	var encPipes, decPipes []*tofino.Pipeline
	var encSpecs []SwitchSpec
	chunkBytes := 32 // paper default; overwritten once a program loads
	for _, sw := range spec.Switches {
		roles := make(map[tofino.Port]zswitch.Role)
		portMap := make(map[tofino.Port]tofino.Port)
		var macMap map[packet.MAC]tofino.Port
		hasEnc, hasDec := false, false
		maxPort := 0
		for _, p := range sw.Ports {
			switch p.Role {
			case RoleEncode:
				roles[tofino.Port(p.Port)] = zswitch.RoleEncode
				hasEnc = true
			case RoleDecode:
				roles[tofino.Port(p.Port)] = zswitch.RoleDecode
				hasDec = true
			}
			if len(sw.Routes) == 0 {
				portMap[tofino.Port(p.Port)] = tofino.Port(p.Out)
				if p.Out > maxPort {
					maxPort = p.Out
				}
			}
			if p.Port > maxPort {
				maxPort = p.Port
			}
		}
		if len(sw.Routes) > 0 {
			macMap = make(map[packet.MAC]tofino.Port, len(sw.Routes))
			for _, r := range sw.Routes {
				macMap[sc.macs[r.Dst]] = tofino.Port(r.Out)
				if r.Out > maxPort {
					maxPort = r.Out
				}
			}
		}
		prog, err := zswitch.New(zswitch.Config{
			M:       spec.Codec.M,
			IDBits:  spec.Codec.IDBits,
			T:       spec.Codec.T,
			TTLNs:   spec.Controller.TTLNs,
			Roles:   roles,
			PortMap: portMap,
			MACMap:  macMap,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %q: switch %s: %w", spec.Name, sw.Name, err)
		}
		chunkBytes = prog.Codec().ChunkBytes()
		if sc.prog == nil {
			sc.prog = prog
		}
		ports := tofino.DefaultPorts
		if maxPort >= ports {
			ports = maxPort + 1
		}
		pl, err := tofino.Load(tofino.Config{Name: sw.Name, Ports: ports}, prog)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: switch %s: %w", spec.Name, sw.Name, err)
		}
		sc.switches[sw.Name] = netsim.NewSwitch(sc.Sim, netsim.SwitchConfig{
			Name:              sw.Name,
			PipelineLatencyNs: netsim.Time(sw.PipelineLatencyNs),
		}, pl)
		sc.pipes[sw.Name] = pl
		if hasEnc {
			encPipes = append(encPipes, pl)
			sc.encNames = append(sc.encNames, sw.Name)
			encSpecs = append(encSpecs, sw)
		}
		if hasDec {
			decPipes = append(decPipes, pl)
		}
	}

	// Links: create endpoints, attach switch ports, remember host NICs.
	hostNIC := make(map[string]*netsim.Endpoint)
	for _, l := range spec.Links {
		cfg := netsim.LinkConfig{
			RateBps:       l.RateBps,
			PropagationNs: netsim.Time(l.PropagationNs),
			Impair: netsim.Impairments{
				LossProb:       l.LossProb,
				DupProb:        l.DupProb,
				ReorderProb:    l.ReorderProb,
				ReorderDelayNs: netsim.Time(l.ReorderDelayNs),
				ExtraLatencyNs: netsim.Time(l.ExtraLatencyNs),
			},
		}
		ea, eb := netsim.NewLink(sc.Sim, cfg, l.A, l.B)
		sc.links = append(sc.links, builtLink{aName: l.A, bName: l.B, a: ea, b: eb})
		for _, end := range []struct {
			ref string
			ep  *netsim.Endpoint
		}{{l.A, ea}, {l.B, eb}} {
			ref, err := parseEndpointRef(end.ref)
			if err != nil {
				return nil, err // unreachable: Validate parsed it already
			}
			if ref.isHost {
				hostNIC[ref.host] = end.ep
			} else {
				sc.switches[ref.sw].AttachPort(tofino.Port(ref.port), end.ep)
			}
		}
	}

	// Hosts, in spec order, with the MACs generated above.
	for _, h := range spec.Hosts {
		sc.hosts[h.Name] = netsim.NewHost(sc.Sim, netsim.HostConfig{
			Name:   h.Name,
			MAC:    sc.macs[h.Name],
			MaxPPS: h.MaxPPS,
		}, hostNIC[h.Name])
	}

	// One control plane spans every encoder and decoder. A scenario
	// with encoders but no decoders is the unified single-pipeline
	// deployment: the encoders' own tables take the decoder installs.
	if len(encPipes) > 0 {
		if len(decPipes) == 0 {
			decPipes = encPipes
		}
		cpCfg := controlplane.Config{
			IDBits:          spec.Codec.IDBits,
			DigestLatencyNs: netsim.Time(spec.Controller.DigestLatencyNs),
			DecisionNs:      netsim.Time(spec.Controller.DecisionNs),
			WriteLatencyNs:  netsim.Time(spec.Controller.WriteLatencyNs),
			SweepIntervalNs: netsim.Time(spec.Controller.SweepIntervalNs),
		}
		if cpCfg.IDBits == 0 {
			cpCfg.IDBits = 15
		}
		if spec.Controller.TTLNs > 0 && cpCfg.SweepIntervalNs == 0 {
			cpCfg.SweepIntervalNs = netsim.Time(spec.Controller.TTLNs / 2)
		}
		if sc.faults != nil {
			cpCfg.Faults = sc.faults
			cpCfg.ControlLossProb = sc.faultSpec.ControlLossProb
			cpCfg.RetransmitTimeoutNs = netsim.Time(sc.faultSpec.RetransmitTimeoutNs)
			cpCfg.MaxRetries = sc.faultSpec.MaxRetries
		}
		// All programs share one codec configuration, so any of them
		// answers for the dictionary key width.
		basisBits := sc.prog.Codec().BasisBits()
		ranged := false
		for _, sw := range encSpecs {
			if sw.IDLimit > 0 {
				ranged = true
				break
			}
		}
		if !ranged {
			ctl, err := controlplane.NewMulti(sc.Sim, cpCfg, encPipes, decPipes, basisBits)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
			}
			for _, name := range sc.encNames {
				ctl.Bind(sc.switches[name])
			}
			sc.ctls = []*controlplane.Controller{ctl}
		} else {
			// Identifier-ranged encoders each get their own controller
			// scoped to the declared range, all writing every decoder
			// table: disjoint ranges keep the installs collision-free,
			// so the range IS the switch's dictionary capacity share.
			for i, sw := range encSpecs {
				cfg := cpCfg
				cfg.IDFirst, cfg.IDLimit = sw.IDFirst, sw.IDLimit
				ctl, err := controlplane.NewMulti(sc.Sim, cfg, encPipes[i:i+1], decPipes, basisBits)
				if err != nil {
					return nil, fmt.Errorf("scenario %q: switch %s: %w", spec.Name, sw.Name, err)
				}
				ctl.Bind(sc.switches[sw.Name])
				sc.ctls = append(sc.ctls, ctl)
			}
		}
		sc.Ctl = sc.ctls[0]
		if sc.faults != nil {
			// Reliable writes check the target switch's crash state at
			// delivery; decoder-only switches aren't Bound, so register
			// every switch explicitly.
			for _, ctl := range sc.ctls {
				for _, sw := range spec.Switches {
					ctl.RegisterSwitch(sc.switches[sw.Name])
				}
			}
		}
	}

	// Declared traffic.
	for i, tr := range spec.Traffic {
		if err := sc.attachTraffic(i, tr, chunkBytes); err != nil {
			return nil, fmt.Errorf("scenario %q: traffic %d: %w", spec.Name, i, err)
		}
	}

	if sc.faults != nil {
		sc.scheduleFaults()
	}
	return sc, nil
}

// Host returns a wired host by name (nil if absent).
func (sc *Scenario) Host(name string) *netsim.Host { return sc.hosts[name] }

// MAC returns a host's generated address (zero if absent) — the
// destination experiments need when streaming bespoke frames.
func (sc *Scenario) MAC(name string) packet.MAC { return sc.macs[name] }

// Switch returns a wired switch by name (nil if absent).
func (sc *Scenario) Switch(name string) *netsim.Switch { return sc.switches[name] }

// Pipeline returns a switch's loaded pipeline by name (nil if
// absent).
func (sc *Scenario) Pipeline(name string) *tofino.Pipeline { return sc.pipes[name] }

// CountOffered folds externally generated traffic (frames sent via
// Host().Stream by an experiment, bypassing the spec's Traffic list)
// into the report's offered-load totals.
func (sc *Scenario) CountOffered(frames, payloadBytes uint64) {
	sc.offeredFrames += frames
	sc.offeredPayload += payloadBytes
}

// attachTraffic schedules one declared flow on its source host.
func (sc *Scenario) attachTraffic(idx int, tr TrafficSpec, chunkBytes int) error {
	seed := tr.Seed
	if seed == 0 {
		seed = sc.Spec.Seed + int64(idx+1)*7919
	}
	records := tr.Records
	if records == 0 {
		records = DefaultTrafficRecords
	}
	var payload func(i int) []byte
	var offsets []netsim.Time // departure times, for a capture replayed at its own timing
	switch tr.Workload {
	case WorkloadRepeat:
		p := make([]byte, chunkBytes)
		rand.New(rand.NewSource(seed)).Read(p)
		payload = func(int) []byte { return p }
	case WorkloadRandom:
		rng := rand.New(rand.NewSource(seed))
		p := make([]byte, chunkBytes)
		payload = func(int) []byte { rng.Read(p); return p }
	case WorkloadSensor:
		ds := trace.Sensor(trace.SensorConfig{Records: records, Seed: seed})
		payload = ds.Record
	case WorkloadDNS:
		ds := trace.DNS(trace.DNSConfig{Queries: records, Seed: seed})
		payload = ds.Record
	case WorkloadTrace:
		// The capture supplies payloads (headers are rebuilt with the
		// scenario's MACs, so a tracegen pcap behaves exactly like its
		// synthetic counterpart). It runs for its own length by
		// default and wraps when asked for more, unless its
		// timestamps pace it.
		rt, err := loadReplayTrace(tr.Trace)
		if err != nil {
			return err
		}
		if tr.Records == 0 || (tr.TraceTiming && records > len(rt.payloads)) {
			records = len(rt.payloads)
		}
		payload = func(i int) []byte { return rt.payloads[i%len(rt.payloads)] }
		if tr.TraceTiming {
			offsets = rt.offsets
		}
	default:
		return fmt.Errorf("unknown workload %q", tr.Workload)
	}

	host := sc.hosts[tr.From]
	hdr := packet.Header{Dst: sc.macs[tr.To], Src: sc.macs[tr.From], EtherType: packet.EtherTypeRaw}
	emit := func(i uint64) []byte {
		p := payload(int(i))
		sc.offeredFrames++
		sc.offeredPayload += uint64(len(p))
		return packet.Frame(hdr, p)
	}
	if offsets != nil {
		host.StreamTimed(netsim.Time(tr.StartNs), netsim.Time(tr.StopNs),
			func(i uint64) (netsim.Time, bool) {
				if i >= uint64(records) {
					return 0, false
				}
				return offsets[i], true
			}, emit)
		return nil
	}
	pps := tr.PPS
	if pps == 0 {
		pps = host.Config().MaxPPS
	}
	host.StreamPaced(netsim.Time(tr.StartNs), netsim.Time(tr.StopNs), pps, func(i uint64) []byte {
		if i >= uint64(records) {
			return nil
		}
		return emit(i)
	})
	return nil
}

// Run executes the simulation — to the configured duration, or to
// event-queue quiescence when none is set — and builds the report.
func (sc *Scenario) Run() Report {
	if d := sc.Spec.DurationNs; d > 0 {
		sc.Sim.RunUntil(netsim.Time(d))
	} else {
		sc.Sim.Run()
	}
	return sc.report()
}
