package packet

import (
	"encoding/binary"
	"fmt"
)

// EtherType values distinguishing the three ZipLine packet types.
// They live in the IEEE "experimental/local" range; the paper does
// not publish its discriminator values, so these are this
// implementation's choice.
const (
	// EtherTypeRaw tags type 1 traffic generated by the testbed
	// hosts. Any other EtherType is also treated as type 1 by the
	// encoder ("packet type 1 can be any Ethernet packet").
	EtherTypeRaw uint16 = 0x88B5
	// EtherTypeUncompressed tags type 2: syndrome + basis.
	EtherTypeUncompressed uint16 = 0x88B6
	// EtherTypeCompressed tags type 3: syndrome + identifier.
	EtherTypeCompressed uint16 = 0x88B7
)

// Type enumerates the paper's packet taxonomy.
type Type int

// Packet types from paper §5.
const (
	TypeRaw          Type = 1 // regular, yet unprocessed
	TypeUncompressed Type = 2 // processed but uncompressed
	TypeCompressed   Type = 3 // processed and compressed
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeRaw:
		return "type1/raw"
	case TypeUncompressed:
		return "type2/uncompressed"
	case TypeCompressed:
		return "type3/compressed"
	default:
		return fmt.Sprintf("type%d/invalid", int(t))
	}
}

// TypeOf maps an EtherType to a packet type.
func TypeOf(etherType uint16) Type {
	switch etherType {
	case EtherTypeUncompressed:
		return TypeUncompressed
	case EtherTypeCompressed:
		return TypeCompressed
	default:
		return TypeRaw
	}
}

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the address in canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// HeaderLen is the length of an Ethernet II header (no 802.1Q).
const HeaderLen = 14

// Header is an Ethernet II header.
type Header struct {
	Dst, Src  MAC
	EtherType uint16
}

// Type returns the ZipLine packet type implied by the EtherType.
func (h Header) Type() Type { return TypeOf(h.EtherType) }

// ParseHeader decodes the Ethernet header and returns the payload as
// a sub-slice of frame.
func ParseHeader(frame []byte) (Header, []byte, error) {
	if len(frame) < HeaderLen {
		return Header{}, nil, fmt.Errorf("packet: frame of %d bytes shorter than Ethernet header", len(frame))
	}
	var h Header
	copy(h.Dst[:], frame[0:6])
	copy(h.Src[:], frame[6:12])
	h.EtherType = binary.BigEndian.Uint16(frame[12:14])
	return h, frame[HeaderLen:], nil
}

// AppendHeader appends the 14-byte Ethernet header to dst.
func AppendHeader(dst []byte, h Header) []byte {
	dst = append(dst, h.Dst[:]...)
	dst = append(dst, h.Src[:]...)
	return binary.BigEndian.AppendUint16(dst, h.EtherType)
}

// Frame assembles header plus payload into a fresh buffer.
func Frame(h Header, payload []byte) []byte {
	out := make([]byte, 0, HeaderLen+len(payload))
	out = AppendHeader(out, h)
	return append(out, payload...)
}
