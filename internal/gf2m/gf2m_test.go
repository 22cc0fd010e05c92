package gf2m

import (
	"testing"
	"testing/quick"
)

func TestFieldAxioms(t *testing.T) {
	f := MustNew(8, 0x1D)
	order := uint32(f.Order())
	chk := func(a, b, c uint32) bool {
		a, b, c = a%order+0, b%order, c%order // arbitrary elements incl. 0? keep raw
		a &= order
		b &= order
		c &= order
		// Distributivity: a(b+c) = ab + ac.
		if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
			return false
		}
		// Commutativity and associativity of Mul.
		if f.Mul(a, b) != f.Mul(b, a) {
			return false
		}
		if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
			return false
		}
		return true
	}
	if err := quick.Check(chk, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	f := MustNew(5, 0x05)
	for a := uint32(1); a < 32; a++ {
		if got := f.Mul(a, f.Div(1, a)); got != 1 {
			t.Fatalf("a·a⁻¹ = %#x for a=%#x", got, a)
		}
		if f.Div(a, a) != 1 {
			t.Fatalf("a/a != 1 for a=%#x", a)
		}
	}
}

func TestAlphaCycle(t *testing.T) {
	f := MustNew(4, 0x3)
	seen := map[uint32]bool{}
	for i := 0; i < f.Order(); i++ {
		x := f.Alpha(i)
		if seen[x] {
			t.Fatalf("α^%d repeats", i)
		}
		seen[x] = true
	}
	// Negative exponents wrap.
	if f.Alpha(-1) != f.Alpha(f.Order()-1) {
		t.Fatal("negative exponent broken")
	}
	if f.Alpha(f.Order()) != 1 {
		t.Fatal("α^order != 1")
	}
}

func TestEvalPoly(t *testing.T) {
	f := MustNew(4, 0x3)
	// p(x) = x^3 + x + 1 evaluated at α must be zero: α is a root of
	// its minimal... no — the primitive polynomial here is x^4+x+1;
	// evaluate THAT at α.
	if got := f.EvalPoly(0b10011, f.Alpha(1)); got != 0 {
		t.Fatalf("primitive poly at α = %#x, want 0", got)
	}
	// p(x) = x + 1 at α^0 = 1: 1+1 = 0.
	if got := f.EvalPoly(0b11, 1); got != 0 {
		t.Fatalf("x+1 at 1 = %#x", got)
	}
	// p(x) = x² at α: α².
	if got := f.EvalPoly(0b100, f.Alpha(1)); got != f.Alpha(2) {
		t.Fatalf("x² at α = %#x, want α²", got)
	}
}

func TestMinimalPoly(t *testing.T) {
	f := MustNew(4, 0x3)
	// Known minimal polynomials for GF(16) with x^4+x+1:
	// α:  x^4+x+1       (0b10011)
	// α³: x^4+x³+x²+x+1 (0b11111)
	// α⁵: x²+x+1        (0b111)
	// α⁷: x^4+x³+1      (0b11001)
	cases := map[int]uint64{
		1: 0b10011,
		3: 0b11111,
		5: 0b111,
		7: 0b11001,
		0: 0b11, // x+1 for α^0 = 1
	}
	for i, want := range cases {
		if got := f.MinimalPoly(i); got != want {
			t.Errorf("MinimalPoly(α^%d) = %#b, want %#b", i, got, want)
		}
	}
	// Every element's minimal polynomial must vanish at the element.
	for i := 0; i < f.Order(); i++ {
		mp := f.MinimalPoly(i)
		if got := f.EvalPoly(mp, f.Alpha(i)); got != 0 {
			t.Fatalf("minpoly(α^%d) does not vanish: %#x", i, got)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 1); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := New(17, 1); err == nil {
		t.Error("m=17 accepted")
	}
	if _, err := New(4, 0x2); err == nil {
		t.Error("even polynomial accepted")
	}
	// x^4+x³+x²+x+1 has order 5: not primitive.
	if _, err := New(4, 0xF); err == nil {
		t.Error("non-primitive polynomial accepted")
	}
}

func TestInvPanics(t *testing.T) {
	f := MustNew(4, 0x3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Div(1, 0)
}
