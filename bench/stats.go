package main

import (
	"math"
	"sort"
)

// summary is one metric's distribution over a set of samples. The raw
// samples ride along so a later reader can recompute any statistic.
type summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"` // median
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs), Samples: append([]float64{}, xs...)}
	if len(xs) == 0 {
		return s
	}
	s.Value = median(xs)
	q := quartiles(xs)
	s.Q1, s.Q3 = q[0], q[2]
	return s
}

// spread is the interquartile range as a share of the median (0 when the
// median is 0, where no relative spread exists).
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

func sorted(xs []float64) []float64 {
	out := append([]float64{}, xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// which is how run-to-run spread is judged against a metric's bound.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	var out [3]float64
	switch ld {
	case 0:
		return out
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}

// tailBeyond is how many samples a reported tail percentile must leave
// above it.
const tailBeyond = 10

// tail returns the highest percentile that has at least tailBeyond
// samples beyond it, and the sample value there. With too few samples
// for any such percentile it returns (0, 0).
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0
	}
	s := sorted(xs)
	i := n - tailBeyond - 1
	return 100 * float64(i+1) / float64(n), s[i]
}

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
