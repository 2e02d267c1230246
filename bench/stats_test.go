package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// Run-to-run spread is judged with Python's statistics.quantiles(xs, n=4);
// these expectations are that function's output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2.5, 9, 1, 7, 3, 8, 4, 6, 10, 5}, [3]float64{2.875, 5.5, 8.25}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSummarySpread(t *testing.T) {
	s := summarize("s", []float64{1, 2, 3, 4})
	if s.Value != 2.5 || s.Q1 != 1.25 || s.Q3 != 3.75 || s.N != 4 || len(s.Samples) != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if got := s.spread(); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := (summary{}).spread(); got != 0 {
		t.Errorf("empty spread = %v, want 0", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	if pct, v := tail(seq(10)); pct != 0 || v != 0 {
		t.Errorf("10 samples: tail = (%v, %v), want none", pct, v)
	}
	if pct, v := tail(seq(11)); v != 1 || pct != 100.0/11 {
		t.Errorf("11 samples: tail = (%v, %v), want (%v, 1)", pct, v, 100.0/11)
	}
	xs := seq(100)
	pct, v := tail(xs)
	if pct != 90 || v != 90 {
		t.Fatalf("100 samples: tail = (%v, %v), want (90, 90)", pct, v)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
}
