package stats

import (
	"math"
	"testing"
	"testing/quick"

	"stbpu/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("CV of constant = %v, want 0", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Errorf("CV of zeros = %v, want 0", got)
	}
	if got := CV([]float64{-1, 1}); !math.IsInf(got, 1) {
		t.Errorf("CV with zero mean = %v, want +Inf", got)
	}
	got := CV([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(got, 2.0/5.0, 1e-12) {
		t.Errorf("CV = %v, want 0.4", got)
	}
}

func TestHarmonicMean(t *testing.T) {
	got, err := HarmonicMean([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0 / (1 + 0.5 + 0.25)
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("HarmonicMean = %v, want %v", got, want)
	}
	if _, err := HarmonicMean(nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := HarmonicMean([]float64{1, 0}); err == nil {
		t.Error("expected error for non-positive value")
	}
}

func TestHarmonicMeanLEArithmetic(t *testing.T) {
	// Property: harmonic mean <= arithmetic mean for positive samples.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 1+r.Intn(10))
		for i := range xs {
			xs[i] = r.Float64() + 0.01
		}
		hm, err := HarmonicMean(xs)
		if err != nil {
			return false
		}
		return hm <= Mean(xs)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinCountsAndCV(t *testing.T) {
	outputs := []uint64{0, 1, 2, 3, 0, 1, 2, 3}
	counts := BinCounts(outputs, 4)
	for i, c := range counts {
		if c != 2 {
			t.Errorf("bin %d = %d, want 2", i, c)
		}
	}
	if cv := BinCV(outputs, 4); cv != 0 {
		t.Errorf("BinCV of uniform = %v, want 0", cv)
	}
	// All outputs in one bin: maximal skew.
	if cv := BinCV([]uint64{5, 5, 5, 5}, 4); cv <= 1 {
		t.Errorf("BinCV of degenerate = %v, want > 1", cv)
	}
}

func TestBinCVUniformHash(t *testing.T) {
	// A good PRNG reduced mod n should have small bin CV.
	r := rng.New(42)
	outputs := make([]uint64, 1<<16)
	for i := range outputs {
		outputs[i] = r.Uint64()
	}
	if cv := BinCV(outputs, 256); cv > 0.1 {
		t.Errorf("BinCV of PRNG = %v, want < 0.1", cv)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Errorf("Summarize(nil) = %+v", empty)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(1, 2); got != 0.5 {
		t.Errorf("Ratio = %v, want 0.5", got)
	}
	if got := Ratio(5, 0); got != 0 {
		t.Errorf("Ratio by zero = %v, want 0", got)
	}
}
