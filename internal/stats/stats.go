package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample is a set of repeated measurements.
type Sample struct {
	xs []float64
}

// New builds a sample from values.
func New(xs ...float64) *Sample {
	s := &Sample{}
	s.Add(xs...)
	return s
}

// Add appends measurements.
func (s *Sample) Add(xs ...float64) { s.xs = append(s.xs, xs...) }

// N returns the number of measurements.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the measurements in insertion order, for
// merging samples.
func (s *Sample) Values() []float64 { return append([]float64(nil), s.xs...) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Stddev returns the sample standard deviation (n−1 denominator).
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	xs := append([]float64(nil), s.xs...)
	sort.Float64s(xs)
	if n == 1 {
		return xs[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// CI95 returns the half-width of the 95 % confidence interval of the
// mean, using Student's t distribution (two-sided, matching the
// paper's error bars).
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return tValue95(n-1) * s.Stddev() / math.Sqrt(float64(n))
}

// String renders "mean ± ci95".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.CI95())
}

// tValue95 returns the two-sided 95 % critical value of Student's t
// for the given degrees of freedom.
func tValue95(df int) float64 {
	// Exact table for small df (the regime the paper's 10 repeats
	// live in), asymptote beyond.
	table := []float64{
		0:  0, // unused
		1:  12.706,
		2:  4.303,
		3:  3.182,
		4:  2.776,
		5:  2.571,
		6:  2.447,
		7:  2.365,
		8:  2.306,
		9:  2.262,
		10: 2.228,
		11: 2.201,
		12: 2.179,
		13: 2.160,
		14: 2.145,
		15: 2.131,
		16: 2.120,
		17: 2.110,
		18: 2.101,
		19: 2.093,
		20: 2.086,
		25: 2.060,
		30: 2.042,
		40: 2.021,
		60: 2.000,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) && table[df] != 0 {
		return table[df]
	}
	// Nearest smaller tabulated df, else the normal limit.
	best := 1.960
	for d, v := range table {
		if v != 0 && d <= df && d > 0 {
			best = v
			if d == df {
				break
			}
		}
	}
	if df > 60 {
		best = 1.960
	}
	return best
}
