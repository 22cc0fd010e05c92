package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"zipline/internal/netsim"
	"zipline/internal/zswitch"
)

// MaxPort bounds switch port numbers, mirroring the dataplane's
// dense per-port dispatch (zswitch.MaxPort).
const MaxPort = zswitch.MaxPort

// Role names accepted by PortSpec.Role.
const (
	RoleForward = "forward"
	RoleEncode  = "encode"
	RoleDecode  = "decode"
)

// Workload names accepted by TrafficSpec.Workload.
const (
	// WorkloadRepeat replays one seeded random chunk-size payload —
	// the paper's dynamic-learning workload ("we repeatedly send the
	// same data packet as fast as possible").
	WorkloadRepeat = "repeat"
	// WorkloadRandom draws a fresh random payload per frame: nothing
	// repeats, the adversarial floor for any deduplicator.
	WorkloadRandom = "random"
	// WorkloadSensor replays the synthetic sensor dataset (§7).
	WorkloadSensor = "sensor"
	// WorkloadDNS replays the campus-DNS dataset (§7).
	WorkloadDNS = "dns"
	// WorkloadTrace replays the payloads of a pcap capture
	// (TrafficSpec.Trace) — the artifact cmd/tracegen emits and the
	// paper replays at the switch.
	WorkloadTrace = "trace"
)

// Spec declares one simulation scenario. The zero values of most
// fields take the paper's operating point.
type Spec struct {
	// Name identifies the scenario in reports.
	Name string `json:"name"`
	// Seed drives every random draw of the run (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DurationNs bounds virtual time; 0 runs until the event queue
	// drains (requires no periodic controller sweep).
	DurationNs int64 `json:"duration_ns,omitempty"`
	// Codec selects the GD operating point for every switch.
	Codec CodecSpec `json:"codec,omitempty"`
	// Controller overrides control-plane timing.
	Controller ControllerSpec `json:"controller,omitempty"`

	Hosts    []HostSpec    `json:"hosts"`
	Switches []SwitchSpec  `json:"switches"`
	Links    []LinkSpec    `json:"links"`
	Traffic  []TrafficSpec `json:"traffic,omitempty"`

	// Topology, when set, generates Hosts, Switches and Links from a
	// parameterized graph instead of explicit declarations — the spec
	// must then declare none of them. Flows generates Traffic from the
	// flow-churn model, and Placement decides which generated switches
	// encode and how the identifier space splits across them; both
	// require Topology.
	Topology  *TopologySpec  `json:"topology,omitempty"`
	Flows     *FlowsSpec     `json:"flows,omitempty"`
	Placement *PlacementSpec `json:"placement,omitempty"`

	// Faults schedules switch restarts, link flaps and control-channel
	// loss. Nil (or an all-zero schedule) leaves the control channel
	// lossless and schedules nothing: the report is byte-identical to
	// a run without the field.
	Faults *netsim.FaultSpec `json:"faults,omitempty"`
}

// CodecSpec selects the GD code (defaults: the paper's m=8, 15-bit
// identifiers, Hamming transform).
type CodecSpec struct {
	M      int `json:"m,omitempty"`
	IDBits int `json:"id_bits,omitempty"`
	T      int `json:"t,omitempty"`
}

// ControllerSpec overrides the control plane's modelled timing. Zero
// values take the defaults that sum to the paper's 1.77 ms learning
// delay.
type ControllerSpec struct {
	DigestLatencyNs int64 `json:"digest_latency_ns,omitempty"`
	DecisionNs      int64 `json:"decision_ns,omitempty"`
	WriteLatencyNs  int64 `json:"write_latency_ns,omitempty"`
	// TTLNs ages encoder dictionary entries out after this idle time;
	// 0 disables aging.
	TTLNs int64 `json:"ttl_ns,omitempty"`
	// SweepIntervalNs polls the idle timers (default TTLNs/2 when TTL
	// is set). Requires DurationNs, since sweeps recur forever.
	SweepIntervalNs int64 `json:"sweep_interval_ns,omitempty"`
}

// HostSpec declares one server.
type HostSpec struct {
	Name string `json:"name"`
	// MaxPPS caps the host's traffic generator (0 = line rate).
	MaxPPS float64 `json:"max_pps,omitempty"`
}

// SwitchSpec declares one programmable switch running the ZipLine
// program.
type SwitchSpec struct {
	Name  string     `json:"name"`
	Ports []PortSpec `json:"ports"`
	// PipelineLatencyNs overrides the constant traversal latency.
	PipelineLatencyNs int64 `json:"pipeline_latency_ns,omitempty"`
	// Routes forward by destination host instead of static port maps:
	// a frame whose Ethernet destination is Dst's MAC egresses on Out.
	// When any route is declared the switch forwards exclusively by
	// destination (PortSpec.Out is ignored) — what multi-path
	// topologies need, where one ingress fans out to many egresses.
	Routes []RouteSpec `json:"routes,omitempty"`
	// IDFirst/IDLimit scope this switch's dictionary to the half-open
	// identifier range [IDFirst, IDLimit) — its capacity share. Any
	// switch declaring a range gives every encoding switch its own
	// controller over its declared range; disjoint ranges share the
	// network's decoder tables without collisions.
	IDFirst uint32 `json:"id_first,omitempty"`
	IDLimit uint32 `json:"id_limit,omitempty"`
}

// RouteSpec is one destination-based forwarding entry.
type RouteSpec struct {
	Dst string `json:"dst"`
	Out int    `json:"out"`
}

// PortSpec assigns a role and static forwarding to one ingress port.
type PortSpec struct {
	Port int `json:"port"`
	// Role is "forward" (default), "encode" or "decode".
	Role string `json:"role,omitempty"`
	// Out is the egress port for traffic arriving on Port.
	Out int `json:"out"`
}

// LinkSpec wires two attachment points. Each end is either a host
// name ("sender") or a switch port ("sw1:0").
type LinkSpec struct {
	A string `json:"a"`
	B string `json:"b"`
	// RateBps (default 100 Gbit/s) and PropagationNs (default 5 ns)
	// size the link.
	RateBps       int64 `json:"rate_bps,omitempty"`
	PropagationNs int64 `json:"propagation_ns,omitempty"`
	// Impairments, applied to both directions independently.
	LossProb       float64 `json:"loss_prob,omitempty"`
	DupProb        float64 `json:"dup_prob,omitempty"`
	ReorderProb    float64 `json:"reorder_prob,omitempty"`
	ReorderDelayNs int64   `json:"reorder_delay_ns,omitempty"`
	ExtraLatencyNs int64   `json:"extra_latency_ns,omitempty"`
}

// TrafficSpec drives one flow from a host's generator.
type TrafficSpec struct {
	// From and To name hosts; To supplies the destination MAC.
	From string `json:"from"`
	To   string `json:"to"`
	// Workload selects the payload generator.
	Workload string `json:"workload"`
	// Records bounds the number of frames (default 10,000); the
	// sensor and DNS workloads also size their datasets with it.
	Records int `json:"records,omitempty"`
	// PPS paces this flow (0 = the host's MaxPPS).
	PPS float64 `json:"pps,omitempty"`
	// StartNs/StopNs window the flow (StopNs 0 = unbounded).
	StartNs int64 `json:"start_ns,omitempty"`
	StopNs  int64 `json:"stop_ns,omitempty"`
	// Seed salts this flow's generator (default: scenario seed + flow
	// index).
	Seed int64 `json:"seed,omitempty"`
	// Trace is the pcap file replayed when Workload is "trace". Each
	// captured frame contributes its Ethernet payload; Records beyond
	// the capture wrap around to the start.
	Trace string `json:"trace,omitempty"`
	// TraceTiming replays frames at the capture's recorded inter-frame
	// gaps instead of PPS pacing (Records then caps at the capture
	// length instead of wrapping). Only meaningful with Workload
	// "trace".
	TraceTiming bool `json:"trace_timing,omitempty"`
}

// DefaultTrafficRecords bounds flows that leave Records zero.
const DefaultTrafficRecords = 10_000

// Load reads and validates a Spec from a JSON file.
func Load(path string) (Spec, error) {
	var spec Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("scenario: parsing %s: %w", path, err)
	}
	if err := spec.Validate(); err != nil {
		return spec, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return spec, nil
}

// withDefaults fills the spec-level defaults (not the per-component
// ones, which the builders own).
func (s Spec) withDefaults() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Name == "" {
		s.Name = "unnamed"
	}
	return s
}

// endpointRef is a parsed link attachment point.
type endpointRef struct {
	host   string // host name, or
	sw     string // switch name +
	port   int    // port number
	isHost bool
}

func parseEndpointRef(s string) (endpointRef, error) {
	if name, port, ok := strings.Cut(s, ":"); ok {
		p, err := strconv.Atoi(port)
		if err != nil || p < 0 {
			return endpointRef{}, fmt.Errorf("bad switch port in %q", s)
		}
		return endpointRef{sw: name, port: p}, nil
	}
	if s == "" {
		return endpointRef{}, fmt.Errorf("empty link endpoint")
	}
	return endpointRef{host: s, isHost: true}, nil
}

// Validate checks the spec's internal consistency; Build calls it,
// but callers constructing specs programmatically can run it early.
func (s Spec) Validate() error {
	if s.Topology != nil {
		// Topology specs are validated structurally here and in full
		// after expansion (Build validates the expanded spec too).
		if len(s.Hosts)+len(s.Switches)+len(s.Links)+len(s.Traffic) > 0 {
			return fmt.Errorf("topology expansion generates hosts/switches/links/traffic: declare none")
		}
		return s.validateTopology()
	}
	if s.Flows != nil {
		return fmt.Errorf("flows block requires a topology block")
	}
	if s.Placement != nil {
		return fmt.Errorf("placement block requires a topology block")
	}
	names := make(map[string]string)
	for _, h := range s.Hosts {
		if h.Name == "" {
			return fmt.Errorf("host with empty name")
		}
		if prev := names[h.Name]; prev != "" {
			return fmt.Errorf("name %q used by both a %s and a host", h.Name, prev)
		}
		names[h.Name] = "host"
	}
	roles := map[string]bool{RoleForward: true, RoleEncode: true, RoleDecode: true, "": true}
	knownPorts := make(map[string]map[int]bool) // switch → declared ingress/egress ports
	for _, sw := range s.Switches {
		if sw.Name == "" {
			return fmt.Errorf("switch with empty name")
		}
		if prev := names[sw.Name]; prev != "" {
			return fmt.Errorf("name %q used by both a %s and a switch", sw.Name, prev)
		}
		names[sw.Name] = "switch"
		if len(sw.Ports) == 0 {
			return fmt.Errorf("switch %q has no ports", sw.Name)
		}
		seen := make(map[int]bool)
		known := make(map[int]bool)
		for _, p := range sw.Ports {
			if p.Port < 0 || p.Out < 0 {
				return fmt.Errorf("switch %q: negative port", sw.Name)
			}
			if p.Port > MaxPort || p.Out > MaxPort {
				return fmt.Errorf("switch %q: port %d exceeds %d", sw.Name, max(p.Port, p.Out), MaxPort)
			}
			if seen[p.Port] {
				return fmt.Errorf("switch %q: port %d declared twice", sw.Name, p.Port)
			}
			seen[p.Port] = true
			known[p.Port], known[p.Out] = true, true
			if !roles[p.Role] {
				return fmt.Errorf("switch %q port %d: unknown role %q", sw.Name, p.Port, p.Role)
			}
		}
		if len(sw.Routes) > 0 {
			dsts := make(map[string]bool, len(sw.Routes))
			for _, r := range sw.Routes {
				if names[r.Dst] != "host" {
					return fmt.Errorf("switch %q: route to unknown host %q", sw.Name, r.Dst)
				}
				if dsts[r.Dst] {
					return fmt.Errorf("switch %q: duplicate route to %q", sw.Name, r.Dst)
				}
				dsts[r.Dst] = true
				if r.Out < 0 || r.Out > MaxPort {
					return fmt.Errorf("switch %q: route egress %d outside [0,%d]", sw.Name, r.Out, MaxPort)
				}
				known[r.Out] = true
			}
		}
		if sw.IDLimit > 0 && sw.IDFirst >= sw.IDLimit {
			return fmt.Errorf("switch %q: identifier range [%d,%d) is empty", sw.Name, sw.IDFirst, sw.IDLimit)
		}
		knownPorts[sw.Name] = known
	}
	// Per-switch identifier ranges are all-or-nothing across encoders:
	// a ranged build gives each encoding switch its own controller, so
	// an unranged encoder would have no identifier budget at all.
	ranged := false
	for _, sw := range s.Switches {
		if sw.IDLimit > 0 {
			ranged = true
			break
		}
	}
	if ranged {
		for _, sw := range s.Switches {
			hasEnc := false
			for _, p := range sw.Ports {
				if p.Role == RoleEncode {
					hasEnc = true
					break
				}
			}
			if hasEnc && sw.IDLimit == 0 {
				return fmt.Errorf("switch %q encodes without an identifier range while others declare one", sw.Name)
			}
		}
	}

	hostLinks := make(map[string]int)
	swPorts := make(map[string]bool)
	for i, l := range s.Links {
		for _, end := range []string{l.A, l.B} {
			ref, err := parseEndpointRef(end)
			if err != nil {
				return fmt.Errorf("link %d: %w", i, err)
			}
			if ref.isHost {
				if names[ref.host] != "host" {
					return fmt.Errorf("link %d: unknown host %q", i, ref.host)
				}
				hostLinks[ref.host]++
			} else {
				if names[ref.sw] != "switch" {
					return fmt.Errorf("link %d: unknown switch %q", i, ref.sw)
				}
				if !knownPorts[ref.sw][ref.port] {
					return fmt.Errorf("link %d: switch %q declares no port %d (neither ingress nor egress)",
						i, ref.sw, ref.port)
				}
				key := fmt.Sprintf("%s:%d", ref.sw, ref.port)
				if swPorts[key] {
					return fmt.Errorf("link %d: %s already wired", i, key)
				}
				swPorts[key] = true
			}
		}
		for _, p := range []float64{l.LossProb, l.DupProb, l.ReorderProb} {
			if p < 0 || p > 1 {
				return fmt.Errorf("link %d: probability %v out of [0,1]", i, p)
			}
		}
	}
	for _, h := range s.Hosts {
		if hostLinks[h.Name] != 1 {
			return fmt.Errorf("host %q wired to %d links, want exactly 1", h.Name, hostLinks[h.Name])
		}
	}

	workloads := map[string]bool{WorkloadRepeat: true, WorkloadRandom: true, WorkloadSensor: true, WorkloadDNS: true, WorkloadTrace: true}
	for i, tr := range s.Traffic {
		if names[tr.From] != "host" {
			return fmt.Errorf("traffic %d: unknown source host %q", i, tr.From)
		}
		if names[tr.To] != "host" {
			return fmt.Errorf("traffic %d: unknown destination host %q", i, tr.To)
		}
		if !workloads[tr.Workload] {
			return fmt.Errorf("traffic %d: unknown workload %q", i, tr.Workload)
		}
		if tr.Records < 0 {
			return fmt.Errorf("traffic %d: negative record count", i)
		}
		if tr.Workload == WorkloadTrace && tr.Trace == "" {
			return fmt.Errorf("traffic %d: trace workload needs a pcap path", i)
		}
		if tr.Workload != WorkloadTrace && (tr.Trace != "" || tr.TraceTiming) {
			return fmt.Errorf("traffic %d: trace/trace_timing only apply to the trace workload", i)
		}
	}

	if s.Controller.TTLNs > 0 || s.Controller.SweepIntervalNs > 0 {
		if s.DurationNs <= 0 {
			return fmt.Errorf("TTL aging sweeps recur forever: set duration_ns")
		}
	}

	if err := s.Faults.Validate(func(name string) bool { return names[name] == "switch" }, len(s.Links)); err != nil {
		return err
	}
	return nil
}
