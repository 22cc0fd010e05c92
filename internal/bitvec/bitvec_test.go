package bitvec

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	v := New(13)
	if v.Len() != 13 {
		t.Fatalf("Len = %d, want 13", v.Len())
	}
	if v.String() != strings.Repeat("0", 13) {
		t.Fatalf("new vector not zero: %s", v)
	}
	if got := len(v.Bytes()); got != 2 {
		t.Fatalf("backing bytes = %d, want 2", got)
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(10)
	v.Set(0, true)
	v.Set(9, true)
	if !v.Bit(0) || !v.Bit(9) || v.Bit(5) {
		t.Fatalf("unexpected bits: %s", v)
	}
	v.Flip(9)
	if v.Bit(9) {
		t.Fatalf("flip did not clear bit 9: %s", v)
	}
	v.Flip(5)
	if !v.Bit(5) {
		t.Fatalf("flip did not set bit 5: %s", v)
	}
	if got := v.String(); got != "1000010000" {
		t.Fatalf("String = %q, want 1000010000", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"", "0", "1", "0100110", "1111111000000001", "10101010101"} {
		v, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if v.String() != s {
			t.Errorf("round trip %q -> %q", s, v.String())
		}
	}
	if _, err := Parse("01x"); err == nil {
		t.Fatal("Parse accepted invalid character")
	}
	v := MustParse("0100 110")
	if v.Len() != 7 {
		t.Fatalf("separator not ignored, len %d", v.Len())
	}
}

func TestFromUint(t *testing.T) {
	v := FromUint(0b101, 7)
	if got := v.String(); got != "0000101" {
		t.Fatalf("FromUint = %s, want 0000101", got)
	}
	if v.Uint() != 5 {
		t.Fatalf("Uint = %d, want 5", v.Uint())
	}
	// Bits above the width are dropped.
	v = FromUint(0xFF, 3)
	if v.Uint() != 7 {
		t.Fatalf("Uint = %d, want 7", v.Uint())
	}
	// Wider than the integer: x sits right-aligned behind zeros.
	v = FromUint(1<<63|0b11, 70)
	if got, want := v.String(), "0000001"+strings.Repeat("0", 61)+"11"; got != want {
		t.Fatalf("FromUint = %s, want %s", got, want)
	}
	if FromUint(9, 0).Len() != 0 {
		t.Fatal("FromUint(_, 0) is not empty")
	}
}

func TestFromBytesTailClearing(t *testing.T) {
	// 0xFF holds 8 set bits, but a 5-bit vector must zero the tail.
	v := FromBytes([]byte{0xFF}, 5)
	if got := v.Bytes()[0]; got != 0xF8 {
		t.Fatalf("tail not cleared: %08b", got)
	}
	if v.String() != "11111" {
		t.Fatalf("bits = %s, want 11111", v)
	}
}

func TestEqualClone(t *testing.T) {
	a := MustParse("1100110")
	c := a.Clone()
	a.Flip(1)
	if got := a.String(); got != "1000110" {
		t.Fatalf("flip = %s, want 1000110", got)
	}
	if a.Equal(c) {
		t.Fatal("flip mutated clone or Equal broken")
	}
	a.Flip(1)
	if !a.Equal(c) {
		t.Fatal("double flip is not identity")
	}
	if a.Equal(MustParse("11001100")) {
		t.Fatal("Equal ignores length")
	}
}

// concat joins two vectors the way the wire formats do: through a
// Writer.
func concat(a, b *Vector) *Vector {
	var w Writer
	w.WriteVector(a)
	w.WriteVector(b)
	return FromBytes(w.Bytes(), w.Len())
}

func TestSliceConcat(t *testing.T) {
	v := MustParse("110100101100")
	left := v.Slice(0, 5)
	right := v.Slice(5, 7)
	if left.String() != "11010" || right.String() != "0101100" {
		t.Fatalf("slices = %s / %s", left, right)
	}
	if got := concat(left, right); !got.Equal(v) {
		t.Fatalf("concat = %s, want %s", got, v)
	}
	// Unaligned slice.
	mid := v.Slice(3, 6)
	if mid.String() != "100101" {
		t.Fatalf("mid = %s, want 100101", mid)
	}
}

func TestKeyDistinguishesLengths(t *testing.T) {
	a := New(8)  // 00000000
	b := New(16) // 0000000000000000
	if a.Key() == b.Key() {
		t.Fatal("keys collide across lengths")
	}
	c := MustParse("10")
	d := MustParse("10")
	if c.Key() != d.Key() {
		t.Fatal("equal vectors have different keys")
	}
}

func TestUintPanicsOver64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(65).Uint()
}

func TestSlicePropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(raw []byte) bool {
		n := len(raw) * 8
		v := FromBytes(raw, n)
		if n == 0 {
			return true
		}
		cut := rng.Intn(n + 1)
		return concat(v.Slice(0, cut), v.Slice(cut, n-cut)).Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
