package zswitch

import (
	"encoding/binary"
	"fmt"

	"zipline/internal/bch"
	"zipline/internal/gd"
	"zipline/internal/packet"
	"zipline/internal/tofino"
)

// Role is the per-port behaviour of the program.
type Role int

// Port roles.
const (
	RoleForward Role = iota // no op: plain Ethernet switching
	RoleEncode              // compress arriving raw packets
	RoleDecode              // decompress arriving type 2/3 packets
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleForward:
		return "forward"
	case RoleEncode:
		return "encode"
	case RoleDecode:
		return "decode"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Table names, part of the control-plane contract.
const (
	// TableBasisToID is the encoder dictionary (basis → identifier).
	// Keys are the raw basis bytes (ceil(BasisBits/8), zero tail
	// padding) — exactly the bits the hardware matches on. The action
	// is the identifier, big-endian in ceil(IDBits/8) bytes.
	TableBasisToID = "basis_to_id"
	// TableIDToBasis is the decoder dictionary (identifier → basis).
	// Keys are the 4-byte big-endian identifier (IDKey); the action is
	// the raw basis bytes.
	TableIDToBasis = "id_to_basis"
)

// Config parameterises the program; zero values take the paper's
// operating point.
type Config struct {
	// M selects the code size (default 8 → 32-byte chunks).
	M int
	// T is the transform's error radius: 1 (default) is the paper's
	// Hamming transform, 2..3 the future-work BCH transforms. Wider
	// radii need correspondingly wider syndrome fields on the wire.
	T int
	// IDBits sizes the dictionary identifiers (default 15 → 32,768
	// bases, the largest aligned value that fits the resource
	// budget).
	IDBits int
	// Packed selects the bit-packed wire layout instead of the
	// Tofino byte-aligned one (default false = aligned, as deployed).
	Packed bool
	// TTLNs is the basis-table idle timeout; zero disables aging.
	TTLNs int64
	// Roles assigns a role to each ingress port; unlisted ports
	// forward.
	Roles map[tofino.Port]Role
	// PortMap is static forwarding: ingress port → egress port.
	// Packets arriving on unmapped ports are dropped.
	PortMap map[tofino.Port]tofino.Port
	// MACMap is destination-based forwarding: a frame whose Ethernet
	// destination appears here egresses on the mapped port, overriding
	// PortMap. Frames matching neither map are dropped. The ingress
	// role still applies (roles are per ingress port, not per route),
	// and compressed type 2/3 frames carry the original Dst MAC in
	// their Ethernet header, so destination routing works on them
	// unchanged. This is what multi-path topologies (fat-trees, ISP
	// graphs) need: one ingress port fans out to many egresses.
	MACMap map[packet.MAC]tofino.Port
}

func (c Config) withDefaults() Config {
	if c.M == 0 {
		c.M = 8
	}
	if c.IDBits == 0 {
		c.IDBits = 15
	}
	if c.T == 0 {
		c.T = 1
	}
	return c
}

// MaxPort bounds the port numbers a PortMap may reference: the
// per-ingress dispatch is a dense slice sized by the largest mapped
// port, and no modelled chassis has more front-panel ports than this.
const MaxPort = 4095

// portEntry is the per-ingress-port action, resolved from the Roles
// and PortMap maps at construction so the per-packet path indexes a
// dense slice instead of hashing twice.
type portEntry struct {
	egress tofino.Port
	role   Role
	mapped bool
}

// scratch is the program's per-packet working memory, reused across
// Process calls (the model of the pipeline's PHV and header buffers:
// fixed resources, no allocator).
type scratch struct {
	basis  []byte // SplitChunkBytes output / packed type-2 parse buffer
	frame  []byte // output frame arena, one frame per pass
	digest []byte // epoch-tagged digest payload (fault-era digests only)
	idKey  [4]byte
}

// Program is the ZipLine data plane program. Load it into a
// tofino.Pipeline; it is not usable before that. A Program instance
// must not be shared across concurrently processing pipelines: its
// scratch is per-packet state.
type Program struct {
	cfg   Config
	codec *gd.Codec
	fmt   packet.Format
	ports []portEntry
	// macRoutes is the resolved MACMap; the per-packet lookup converts
	// the frame's Dst bytes to the array key in place, so destination
	// routing costs one map probe and no allocation.
	macRoutes map[packet.MAC]tofino.Port

	basisToID *tofino.Table
	idToBasis *tofino.Table
	// stats classifies packets by how they are transformed (paper §5:
	// "we add counters to our program to provide easily-accessible
	// statistics").
	stats Stats

	// epoch counts dataplane restarts. It rides in every digest once
	// non-zero, so the controller can tell pre- and post-reboot state
	// apart; epoch 0 keeps the compact pre-fault digest layout (and so
	// the pre-fault report bytes) until the first restart.
	epoch uint32
	// bypass, while set by the control plane, forwards raw traffic
	// uncompressed instead of encoding it — graceful degradation while
	// a downstream decoder's state is unconfirmed.
	bypass bool

	scr scratch
}

// New builds the program and its two dictionary tables (the
// compile-time half; Load checks them against the resource budget and
// binds them to the pipeline).
func New(cfg Config) (*Program, error) {
	cfg = cfg.withDefaults()
	var tr gd.Transform
	if cfg.T == 1 {
		h, err := gd.NewHammingM(cfg.M)
		if err != nil {
			return nil, fmt.Errorf("zswitch: %w", err)
		}
		tr = h
	} else {
		b, err := bch.NewTransform(cfg.M, cfg.T)
		if err != nil {
			return nil, fmt.Errorf("zswitch: %w", err)
		}
		tr = b
	}
	codec := gd.NewCodec(tr)
	f, err := packet.NewFormat(codec, cfg.IDBits, !cfg.Packed)
	if err != nil {
		return nil, fmt.Errorf("zswitch: %w", err)
	}
	p := &Program{cfg: cfg, codec: codec, fmt: f}
	capacity := 1 << uint(cfg.IDBits)
	if p.basisToID, err = tofino.NewTable(tofino.TableSpec{
		Name:          TableBasisToID,
		KeyBits:       codec.BasisBits(),
		ActionBits:    cfg.IDBits,
		Capacity:      capacity,
		IdleTimeoutNs: cfg.TTLNs,
	}); err != nil {
		return nil, fmt.Errorf("zswitch: %w", err)
	}
	if p.idToBasis, err = tofino.NewTable(tofino.TableSpec{
		Name:       TableIDToBasis,
		KeyBits:    cfg.IDBits,
		ActionBits: codec.BasisBits(),
		Capacity:   capacity,
	}); err != nil {
		return nil, fmt.Errorf("zswitch: %w", err)
	}
	maxIngress := -1
	//ziplint:allow determinism max reduction is iteration-order-insensitive
	for in, out := range cfg.PortMap {
		if in < 0 || out < 0 || int(in) > MaxPort || int(out) > MaxPort {
			return nil, fmt.Errorf("zswitch: port mapping %d→%d outside [0,%d]", in, out, MaxPort)
		}
		if int(in) > maxIngress {
			maxIngress = int(in)
		}
	}
	// Role-only ports (routed by MACMap, never statically forwarded)
	// still need a dense-slice entry for the role dispatch.
	//ziplint:allow determinism max reduction is iteration-order-insensitive
	for in := range cfg.Roles {
		if in < 0 || int(in) > MaxPort {
			return nil, fmt.Errorf("zswitch: role port %d outside [0,%d]", in, MaxPort)
		}
		if int(in) > maxIngress {
			maxIngress = int(in)
		}
	}
	p.ports = make([]portEntry, maxIngress+1)
	//ziplint:allow determinism dense-slice fill writes disjoint indices, order-insensitive
	for in, role := range cfg.Roles {
		p.ports[in].role = role
	}
	//ziplint:allow determinism dense-slice fill writes disjoint indices, order-insensitive
	for in, out := range cfg.PortMap {
		p.ports[in].egress = out
		p.ports[in].mapped = true
	}
	if len(cfg.MACMap) > 0 {
		p.macRoutes = make(map[packet.MAC]tofino.Port, len(cfg.MACMap))
		//ziplint:allow determinism map-to-map copy is iteration-order-insensitive
		for mac, out := range cfg.MACMap {
			if out < 0 || int(out) > MaxPort {
				return nil, fmt.Errorf("zswitch: MAC route %s→%d outside [0,%d]", mac, out, MaxPort)
			}
			p.macRoutes[mac] = out
		}
	}
	return p, nil
}

// Name implements tofino.Program.
func (p *Program) Name() string { return "zipline" }

// Codec exposes the chunk codec (shared with the control plane and
// test harnesses).
func (p *Program) Codec() *gd.Codec { return p.codec }

// Format exposes the wire format.
func (p *Program) Format() packet.Format { return p.fmt }

// Config returns the program's configuration with defaults applied.
func (p *Program) Config() Config { return p.cfg }

// Tables implements tofino.Program: the encoder and decoder
// dictionaries.
func (p *Program) Tables() []*tofino.Table {
	return []*tofino.Table{p.basisToID, p.idToBasis}
}

// Process implements tofino.Program.
//
//zipline:noalloc
func (p *Program) Process(ctx *tofino.Ctx, frame []byte, ingress tofino.Port, out []tofino.Emit) []tofino.Emit {
	if p.macRoutes != nil {
		return p.processRouted(ctx, frame, ingress, out)
	}
	if int(ingress) < 0 || int(ingress) >= len(p.ports) || !p.ports[ingress].mapped {
		return out // unmapped port: drop
	}
	pe := p.ports[ingress]
	switch pe.role {
	case RoleEncode:
		return p.encode(ctx, frame, pe.egress, out)
	case RoleDecode:
		return p.decode(ctx, frame, pe.egress, out)
	default:
		p.stats.Forwarded++
		return append(out, tofino.Emit{Port: pe.egress, Frame: frame})
	}
}

// processRouted is the destination-routed slow(er) path, split out so
// statically-forwarded switches keep the original three-compare entry.
//
//zipline:noalloc
func (p *Program) processRouted(ctx *tofino.Ctx, frame []byte, ingress tofino.Port, out []tofino.Emit) []tofino.Emit {
	if int(ingress) < 0 {
		return out // unknown port: drop
	}
	// An ingress beyond the dense slice carries no role and no static
	// map; with destination routes it still forwards (a MAC-routed
	// switch may have forward-role ports it never declared).
	var pe portEntry
	if int(ingress) < len(p.ports) {
		pe = p.ports[ingress]
	}
	egress, routed := pe.egress, pe.mapped
	if len(frame) >= packet.HeaderLen {
		if port, ok := p.macRoutes[packet.MAC(frame[0:6])]; ok {
			egress, routed = port, true
		}
	}
	if !routed {
		return out // neither a static nor a destination route: drop
	}
	switch pe.role {
	case RoleEncode:
		return p.encode(ctx, frame, egress, out)
	case RoleDecode:
		return p.decode(ctx, frame, egress, out)
	default:
		p.stats.Forwarded++
		return append(out, tofino.Emit{Port: egress, Frame: frame})
	}
}

// frameScratch returns the output frame arena, emptied, with capacity
// for at least n bytes.
func (p *Program) frameScratch(n int) []byte {
	if cap(p.scr.frame) < n {
		//ziplint:allow noalloc arena grows to its high-water mark once; steady state reuses it
		p.scr.frame = make([]byte, 0, n)
	}
	return p.scr.frame[:0]
}

// digestScratch returns the epoch-tagged digest buffer, emptied, with
// capacity for at least n bytes.
func (p *Program) digestScratch(n int) []byte {
	if cap(p.scr.digest) < n {
		//ziplint:allow noalloc grows to its high-water mark once; steady state reuses it
		p.scr.digest = make([]byte, 0, n)
	}
	return p.scr.digest[:0]
}

// Epoch reports how many times the dataplane has restarted.
func (p *Program) Epoch() uint32 { return p.epoch }

// Bypassing reports whether the control-plane bypass gate is set.
func (p *Program) Bypassing() bool { return p.bypass }

// encode is the Figure 1 path. Only frames tagged EtherTypeRaw are
// compressed: the paper transforms "any Ethernet packet" but does not
// specify how the original EtherType would be restored on decode, so
// this implementation makes the conservative choice of compressing
// exactly the traffic the decoder can reconstruct losslessly.
func (p *Program) encode(ctx *tofino.Ctx, frame []byte, egress tofino.Port, out []tofino.Emit) []tofino.Emit {
	// The header fields are read in place (no Header struct, no MAC
	// copies): only the EtherType gates the path, and the rewritten
	// frame reuses the original Dst/Src bytes verbatim.
	if len(frame) < packet.HeaderLen ||
		binary.BigEndian.Uint16(frame[12:14]) != packet.EtherTypeRaw ||
		len(frame)-packet.HeaderLen < p.codec.ChunkBytes() {
		// Not compressible: forward unchanged.
		if len(frame) >= packet.HeaderLen &&
			binary.BigEndian.Uint16(frame[12:14]) == packet.EtherTypeRaw {
			n := uint64(len(frame) - packet.HeaderLen)
			p.stats.TooShort++
			p.stats.EncPayloadIn += n
			p.stats.EncPayloadOut += n
		} else {
			p.stats.Forwarded++
		}
		return append(out, tofino.Emit{Port: egress, Frame: frame})
	}
	payload := frame[packet.HeaderLen:]
	if p.bypass {
		// Control-plane bypass gate: a downstream decoder's state is
		// unconfirmed, so deliverable beats compressible — forward the
		// raw frame untouched (ratio degrades, delivery holds).
		p.stats.Bypass++
		p.stats.EncPayloadIn += uint64(len(payload))
		p.stats.EncPayloadOut += uint64(len(payload))
		return append(out, tofino.Emit{Port: egress, Frame: frame})
	}
	p.stats.EncPayloadIn += uint64(len(payload))

	chunk := payload[:p.codec.ChunkBytes()]
	tail := payload[p.codec.ChunkBytes():]
	basis, dev, extra, err := p.codec.SplitChunkBytes(chunk, p.scr.basis)
	p.scr.basis = basis
	if err != nil {
		// Unreachable by construction (chunk length checked above);
		// treat as forward to stay total.
		p.stats.Forwarded++
		p.stats.EncPayloadOut += uint64(len(payload))
		return append(out, tofino.Emit{Port: egress, Frame: frame})
	}

	if act, hit := ctx.ApplyBytes(p.basisToID, basis); hit {
		var id uint32
		for _, b := range act {
			id = id<<8 | uint32(b)
		}
		buf := p.frameScratch(packet.HeaderLen + p.fmt.Type3Len() + len(tail))
		buf = append(buf, frame[:12]...)
		buf = binary.BigEndian.AppendUint16(buf, packet.EtherTypeCompressed)
		buf = p.fmt.AppendType3(buf, packet.Compressed{
			Deviation: dev, Extra: extra, ID: id,
		})
		buf = append(buf, tail...)
		p.scr.frame = buf
		p.stats.RawToType3++
		p.stats.EncPayloadOut += uint64(len(buf) - packet.HeaderLen)
		return append(out, tofino.Emit{Port: egress, Frame: buf})
	}

	// Unknown basis: report to the control plane and emit type 2.
	if p.epoch == 0 {
		ctx.Digest(basis)
	} else {
		// Post-restart digests carry the epoch so the controller can
		// spot a reboot even before (or without) its notification.
		d := p.digestScratch(len(basis) + 4)
		d = append(d, basis...)
		d = binary.BigEndian.AppendUint32(d, p.epoch)
		p.scr.digest = d
		ctx.Digest(d)
	}
	p.stats.Digests++
	buf := p.frameScratch(packet.HeaderLen + p.fmt.Type2Len() + len(tail))
	buf = append(buf, frame[:12]...)
	buf = binary.BigEndian.AppendUint16(buf, packet.EtherTypeUncompressed)
	buf = p.fmt.AppendType2Bytes(buf, basis, dev, extra)
	buf = append(buf, tail...)
	p.scr.frame = buf
	p.stats.RawToType2++
	p.stats.EncPayloadOut += uint64(len(buf) - packet.HeaderLen)
	return append(out, tofino.Emit{Port: egress, Frame: buf})
}

// decode is the Figure 2 path.
func (p *Program) decode(ctx *tofino.Ctx, frame []byte, egress tofino.Port, out []tofino.Emit) []tofino.Emit {
	// Like encode, the header is read in place: the EtherType picks
	// the parse, and the rebuilt frame reuses the Dst/Src bytes.
	if len(frame) < packet.HeaderLen {
		return out
	}
	payload := frame[packet.HeaderLen:]
	var (
		basis []byte
		dev   uint32
		extra uint8
		tail  []byte
		cnt   *uint64
		err   error
	)
	switch packet.TypeOf(binary.BigEndian.Uint16(frame[12:14])) {
	case packet.TypeUncompressed:
		basis, dev, extra, tail, err = p.fmt.ParseType2Bytes(payload, p.scr.basis)
		if err != nil {
			return out
		}
		if !p.fmt.Aligned() {
			p.scr.basis = basis // packed layout parses into the scratch
		}
		cnt = &p.stats.Type2ToRaw
	case packet.TypeCompressed:
		var c packet.Compressed
		c, tail, err = p.fmt.ParseType3(payload)
		if err != nil {
			return out
		}
		p.scr.idKey = IDKey(c.ID)
		act, hit := ctx.ApplyBytes(p.idToBasis, p.scr.idKey[:])
		if !hit {
			// The two-phase install protocol makes this impossible
			// in steady state; count and drop if it ever happens.
			p.stats.DecodeMiss++
			return out
		}
		basis = act
		dev, extra = c.Deviation, c.Extra
		cnt = &p.stats.Type3ToRaw
	default:
		p.stats.Forwarded++
		return append(out, tofino.Emit{Port: egress, Frame: frame})
	}

	buf := p.frameScratch(packet.HeaderLen + p.codec.ChunkBytes() + len(tail))
	buf = append(buf, frame[:12]...)
	buf = binary.BigEndian.AppendUint16(buf, packet.EtherTypeRaw)
	buf, err = p.codec.MergeChunkBytes(basis, dev, extra, buf)
	if err != nil {
		return out
	}
	buf = append(buf, tail...)
	p.scr.frame = buf
	*cnt++
	return append(out, tofino.Emit{Port: egress, Frame: buf})
}

// IDKey renders a dictionary identifier as the table key used by
// TableIDToBasis.
func IDKey(id uint32) [4]byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], id)
	return b
}
