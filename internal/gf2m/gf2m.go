package gf2m

import "fmt"

// MaxM bounds the supported field sizes (table size 2^m).
const MaxM = 16

// Field is GF(2^m) with a fixed primitive polynomial. Safe for
// concurrent use after construction.
type Field struct {
	m     int
	param uint32 // primitive polynomial minus the x^m term
	size  int    // 2^m
	// exp[i] = α^i for i in [0, 2^m-2], extended to double length to
	// avoid modular reduction in Mul; log[x] = i with α^i = x.
	exp []uint32
	log []int32
}

// New constructs GF(2^m) from the primitive polynomial
// g(x) = x^m + param(x). It fails if g is not primitive.
func New(m int, param uint32) (*Field, error) {
	if m < 2 || m > MaxM {
		return nil, fmt.Errorf("gf2m: m=%d out of range [2,%d]", m, MaxM)
	}
	if param>>uint(m) != 0 || param&1 == 0 {
		return nil, fmt.Errorf("gf2m: invalid polynomial parameter %#x", param)
	}
	f := &Field{m: m, param: param, size: 1 << uint(m)}
	order := f.size - 1
	f.exp = make([]uint32, 2*order)
	f.log = make([]int32, f.size)
	for i := range f.log {
		f.log[i] = -1
	}
	x := uint32(1)
	for i := 0; i < order; i++ {
		if f.log[x] != -1 {
			return nil, fmt.Errorf("gf2m: polynomial %#x of degree %d is not primitive", param, m)
		}
		f.exp[i] = x
		f.exp[i+order] = x
		f.log[x] = int32(i)
		// multiply by α (i.e. by x, reducing mod g).
		x <<= 1
		if x>>uint(m)&1 == 1 {
			x ^= 1<<uint(m) | param
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("gf2m: polynomial %#x has composite order", param)
	}
	return f, nil
}

// MustNew is New, panicking on error.
func MustNew(m int, param uint32) *Field {
	f, err := New(m, param)
	if err != nil {
		panic(err)
	}
	return f
}

// M returns the field's extension degree.
func (f *Field) M() int { return f.m }

// Order returns the multiplicative group order, 2^m − 1.
func (f *Field) Order() int { return f.size - 1 }

// Alpha returns the generator α^i.
func (f *Field) Alpha(i int) uint32 {
	i %= f.Order()
	if i < 0 {
		i += f.Order()
	}
	return f.exp[i]
}

// Add returns a + b (XOR in characteristic two).
func (f *Field) Add(a, b uint32) uint32 { return a ^ b }

// Mul returns a·b.
func (f *Field) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a/b; it panics when b is zero.
func (f *Field) Div(a, b uint32) uint32 {
	if b == 0 {
		panic("gf2m: division by zero")
	}
	if a == 0 {
		return 0
	}
	l := int(f.log[a]) - int(f.log[b])
	if l < 0 {
		l += f.Order()
	}
	return f.exp[l]
}

// EvalPoly evaluates a GF(2)-coefficient polynomial (bit i of poly =
// coefficient of x^i) at the field element a — used for computing
// BCH syndromes S_j = r(α^j) from a CRC remainder.
func (f *Field) EvalPoly(poly uint64, a uint32) uint32 {
	var acc uint32
	// Horner from the highest bit down.
	for i := 63; i >= 0; i-- {
		if poly>>uint(i) == 0 && acc == 0 {
			continue
		}
		acc = f.Mul(acc, a)
		if poly>>uint(i)&1 == 1 {
			acc ^= 1
		}
	}
	return acc
}

// MinimalPoly returns the minimal polynomial over GF(2) of α^i, as a
// bit mask (bit j = coefficient of x^j). The minimal polynomial is
// the product of (x − α^{i·2^k}) over the conjugacy class of α^i.
func (f *Field) MinimalPoly(i int) uint64 {
	order := f.Order()
	i %= order
	if i < 0 {
		i += order
	}
	if i == 0 {
		return 0b11 // x + 1
	}
	// Collect the cyclotomic coset {i, 2i, 4i, ...} mod (2^m − 1).
	var coset []int
	e := i
	for {
		coset = append(coset, e)
		e = e * 2 % order
		if e == i {
			break
		}
	}
	// Multiply out prod (x + α^e) with coefficients in the field;
	// the result has GF(2) coefficients by construction.
	coeffs := []uint32{1} // constant polynomial 1
	for _, e := range coset {
		root := f.Alpha(e)
		next := make([]uint32, len(coeffs)+1)
		for j, c := range coeffs {
			next[j+1] ^= c            // x · c_j
			next[j] ^= f.Mul(c, root) // root · c_j
		}
		coeffs = next
	}
	var out uint64
	for j, c := range coeffs {
		switch c {
		case 0:
		case 1:
			out |= 1 << uint(j)
		default:
			panic(fmt.Sprintf("gf2m: minimal polynomial has non-binary coefficient %#x", c))
		}
	}
	return out
}
