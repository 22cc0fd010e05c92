package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStddev(t *testing.T) {
	s := New(2, 4, 4, 4, 5, 5, 7, 9)
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if !almost(s.Stddev(), math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("stddev = %v", s.Stddev())
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
}

func TestEmptyAndSingle(t *testing.T) {
	e := New()
	if e.Mean() != 0 || e.Stddev() != 0 || e.CI95() != 0 || e.Percentile(0) != 0 || e.Percentile(100) != 0 {
		t.Fatal("empty sample not all-zero")
	}
	one := New(42)
	if one.Mean() != 42 || one.Stddev() != 0 || one.CI95() != 0 {
		t.Fatal("single sample broken")
	}
	if one.Percentile(50) != 42 {
		t.Fatal("percentile of single")
	}
}

func TestMinMaxPercentile(t *testing.T) {
	s := New(10, 20, 30, 40, 50)
	if !almost(s.Percentile(0), 10, 1e-12) || !almost(s.Percentile(100), 50, 1e-12) {
		t.Fatal("extreme percentiles")
	}
	if !almost(s.Percentile(50), 30, 1e-12) {
		t.Fatalf("median = %v", s.Percentile(50))
	}
	if !almost(s.Percentile(25), 20, 1e-12) {
		t.Fatalf("p25 = %v", s.Percentile(25))
	}
	// Interpolated.
	if !almost(s.Percentile(10), 14, 1e-12) {
		t.Fatalf("p10 = %v", s.Percentile(10))
	}
}

func TestCI95KnownValue(t *testing.T) {
	// n=10 (df=9): t = 2.262. For stddev σ and n=10,
	// CI = 2.262 σ / sqrt(10).
	s := New(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	want := 2.262 * s.Stddev() / math.Sqrt(10)
	if !almost(s.CI95(), want, 1e-9) {
		t.Fatalf("ci = %v, want %v", s.CI95(), want)
	}
}

func TestTValueMonotone(t *testing.T) {
	// The critical value decreases with df toward the normal 1.96.
	prev := math.Inf(1)
	for _, df := range []int{1, 2, 3, 5, 9, 20, 40, 60, 100, 1000} {
		v := tValue95(df)
		if v > prev {
			t.Fatalf("t(%d) = %v rose above %v", df, v, prev)
		}
		prev = v
	}
	if tValue95(10000) != 1.960 {
		t.Fatalf("asymptote = %v", tValue95(10000))
	}
}

func TestMeanWithinMinMaxProperty(t *testing.T) {
	f := func(xs []float64) bool {
		finite := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
				finite = append(finite, x)
			}
		}
		if len(finite) == 0 {
			return true
		}
		s := New(finite...)
		return s.Percentile(0) <= s.Mean()+1e-6 && s.Mean() <= s.Percentile(100)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	s := New(1, 2, 3)
	if got := s.String(); got == "" {
		t.Fatal("empty string")
	}
}
