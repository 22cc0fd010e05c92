package packet

import (
	"bytes"
	"testing"

	"zipline/internal/gd"
)

// FuzzParseFormat feeds arbitrary payloads to both region parsers
// under an arbitrary geometry (m 3…15, idBits 1…24, either layout).
// A parser may refuse a payload but never panic, and what it accepts
// is a fixed point: re-encoding the parsed fields and parsing again
// returns the same fields, the region length the format declares, and
// the payload's own bytes as the tail.
func FuzzParseFormat(f *testing.F) {
	f.Add([]byte{0xFF, 0x80, 0x01, 9, 9}, uint8(8), uint8(15), true)
	f.Add([]byte{0xFF, 0x80, 0x01, 9, 9}, uint8(8), uint8(15), false)
	f.Add([]byte{0xE0}, uint8(3), uint8(1), false)
	f.Add(bytes.Repeat([]byte{0xA5}, 40), uint8(8), uint8(24), true)
	f.Add([]byte{}, uint8(15), uint8(7), false)

	var codecs [16]*gd.Codec
	f.Fuzz(func(t *testing.T, payload []byte, mIn, idIn uint8, align bool) {
		m, idBits := 3+int(mIn)%13, 1+int(idIn)%24
		if codecs[m] == nil {
			tr, err := gd.NewHammingM(m)
			if err != nil {
				t.Fatal(err)
			}
			codecs[m] = gd.NewCodec(tr)
		}
		fm := MustFormat(codecs[m], idBits, align)

		if c, tail, err := fm.ParseType3(payload); err == nil {
			if !bytes.Equal(tail, payload[fm.Type3Len():]) {
				t.Fatalf("type 3 tail %x is not the payload past the region", tail)
			}
			again := fm.AppendType3(nil, c)
			c2, tail2, err := fm.ParseType3(again)
			if err != nil || c2 != c || len(again) != fm.Type3Len() || len(tail2) != 0 {
				t.Fatalf("type 3 %+v re-encoded to %x, parsed back %+v tail %x (%v)", c, again, c2, tail2, err)
			}
		}

		if basis, dev, extra, tail, err := fm.ParseType2Bytes(payload, nil); err == nil {
			if !bytes.Equal(tail, payload[fm.Type2Len():]) {
				t.Fatalf("type 2 tail %x is not the payload past the region", tail)
			}
			again := fm.AppendType2Bytes(nil, basis, dev, extra)
			basis2, dev2, extra2, tail2, err := fm.ParseType2Bytes(again, nil)
			if err != nil || dev2 != dev || extra2 != extra || !bytes.Equal(basis2, basis) || len(again) != fm.Type2Len() || len(tail2) != 0 {
				t.Fatalf("type 2 dev %#x extra %d re-encoded to %x, parsed back dev %#x extra %d tail %x (%v)", dev, extra, again, dev2, extra2, tail2, err)
			}
		}
	})
}
