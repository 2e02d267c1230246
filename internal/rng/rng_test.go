package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownVector(t *testing.T) {
	// Reference values for SplitMix64 seeded with 0 (from the reference
	// C implementation by Sebastiano Vigna).
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestUint64KnownVector(t *testing.T) {
	// The first outputs of xoshiro256** from state {1, 2, 3, 4}, as the
	// reference C implementation produces them. Every trace, token and
	// attack stream in the repository is this sequence, so a rewrite of
	// the step must reproduce it bit for bit.
	var r Rand
	r.SetState([4]uint64{1, 2, 3, 4})
	want := []uint64{
		0x0000000000002d00,
		0x0000000000000000,
		0x000000005a007080,
		0x10e0000000009d80,
		0x10e0b61ce1009d80,
		0x0870021ce143ad00,
		0xe071c3c2e143f089,
		0x75a1690ef7a20380,
		0x9309685b465c23f9,
		0x284f3cc2e13e3c88,
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("Uint64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %#x vs %#x", i, av, bv)
		}
	}
}

func TestNewFromStringStable(t *testing.T) {
	a := NewFromString("500.perlbench")
	b := NewFromString("500.perlbench")
	c := NewFromString("502.gcc")
	if a.Uint64() != b.Uint64() {
		t.Error("same name must give identical streams")
	}
	a2 := NewFromString("500.perlbench")
	if a2.Uint64() == c.Uint64() {
		t.Error("different names should give different streams")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUint64nUniformityProperty(t *testing.T) {
	// Property: for arbitrary seed and modulus, all outputs are in range.
	f := func(seed uint64, modRaw uint64) bool {
		mod := modRaw%1000 + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			if r.Uint64n(mod) >= mod {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(11)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("Shuffle produced duplicate: %v", xs)
		}
		seen[v] = true
	}
}

func TestGeometricBounds(t *testing.T) {
	r := New(123)
	for i := 0; i < 1000; i++ {
		v := r.Geometric(0.5, 16)
		if v < 1 || v > 16 {
			t.Fatalf("Geometric out of bounds: %d", v)
		}
	}
	// Degenerate p returns 1.
	if v := r.Geometric(0, 16); v != 1 {
		t.Errorf("Geometric(0) = %d, want 1", v)
	}
	if v := r.Geometric(1, 16); v != 1 {
		t.Errorf("Geometric(1) = %d, want 1", v)
	}
}

func TestGeometricMean(t *testing.T) {
	// Mean of Geometric(p) (uncapped) is 1/p; with a generous cap the
	// sample mean should be close to 2 for p = 0.5.
	r := New(77)
	sum := 0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Geometric(0.5, 1000)
	}
	mean := float64(sum) / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Errorf("Geometric(0.5) mean = %v, want ~2", mean)
	}
}

// TestGeometricMatchesBernoulliLoop pins Geometric to its definition,
// the Bernoulli loop in reference: the same sample and the same generator
// state afterwards, so every trace built on it keeps its bits. Besides
// fixed probabilities, each seed tries p on and beside its own first
// draw's value, where a threshold off by one would flip the outcome.
func TestGeometricMatchesBernoulliLoop(t *testing.T) {
	reference := func(r *Rand, p float64, max int) int {
		if p <= 0 || p >= 1 {
			return 1
		}
		n := 1
		for n < max && !r.Bool(p) {
			n++
		}
		return n
	}
	fixed := []float64{1.0 / 8000, 1.0 / 12, 0.5, 1 - 0x1p-53, 5e-324, math.NaN()}
	maxes := []int{0, 1, 2, 97, 64000}
	for seed := uint64(0); seed < 40; seed++ {
		u := New(seed).Float64()
		ps := append(fixed, u, math.Nextafter(u, 0), math.Nextafter(u, 1))
		for _, p := range ps {
			for _, max := range maxes {
				got, want := New(seed), New(seed)
				for i := 0; i < 3; i++ {
					g, w := got.Geometric(p, max), reference(want, p, max)
					if g != w {
						t.Fatalf("seed %d p %g max %d draw %d: Geometric = %d, loop = %d", seed, p, max, i, g, w)
					}
					if got.State() != want.State() {
						t.Fatalf("seed %d p %g max %d draw %d: state diverged", seed, p, max, i)
					}
				}
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(9)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	if counts[0] == 0 || counts[99] < 0 {
		t.Error("Zipf produced impossible counts")
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewZipf(New(1), 0, 1.0)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(4096)
	}
	_ = sink
}

// BenchmarkGeometric is the workload generator's drift case: an
// indirect site's target phase, p = 1/8000 with a 64000 cap, a few
// thousand draws per sample.
func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Geometric(1.0/8000, 64000)
	}
	_ = sink
}
