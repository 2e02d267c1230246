// Package stats implements the statistical helpers used by the STBPU
// reproduction: coefficient of variation and bin occupancy (remap
// uniformity, C2), harmonic means (SMT throughput per Michaud),
// goodness-of-fit tests, and small summary helpers.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by aggregations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (stddev / mean) of xs. A CV of 0
// means perfectly uniform samples; the remap generator minimizes this for
// both bin occupancy (C2) and per-input avalanche distances (C3).
// CV returns +Inf when the mean is zero but the samples are not.
func CV(xs []float64) float64 {
	m := Mean(xs)
	sd := StdDev(xs)
	if m == 0 {
		if sd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sd / m
}

// HarmonicMean returns the harmonic mean of xs, the multi-program
// throughput metric used for the paper's SMT evaluation (Fig. 5, citing
// Michaud's "Demystifying multicore throughput metrics"). It returns an
// error if xs is empty or contains a non-positive value.
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: harmonic mean requires positive values")
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum, nil
}

// BinCounts tallies how many of the provided outputs landed in each of n
// bins. Outputs must already be reduced modulo n by the caller's hash; any
// value >= n is counted modulo n defensively.
func BinCounts(outputs []uint64, n int) []int {
	counts := make([]int, n)
	for _, o := range outputs {
		counts[o%uint64(n)]++
	}
	return counts
}

// BinCV computes the coefficient of variation of bin occupancy for the
// given outputs over n bins — the paper's balls-and-bins uniformity test
// for constraint C2.
func BinCV(outputs []uint64, n int) float64 {
	counts := BinCounts(outputs, n)
	xs := make([]float64, n)
	for i, c := range counts {
		xs[i] = float64(c)
	}
	return CV(xs)
}

// Summary holds basic descriptive statistics for a sample set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary for xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// Ratio safely divides a by b, returning 0 when b is 0. Prediction-rate
// computations use it so empty categories read as zero rather than NaN.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
