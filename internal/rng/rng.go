// Package rng provides the deterministic pseudo-random number generators
// used throughout the STBPU reproduction.
//
// The paper assumes secret tokens are fetched from a low-latency in-chip
// hardware PRNG (Intel DRNG). For a reproducible simulation we substitute
// SplitMix64 (for seeding) and xoshiro256** (for streams). Both are
// well-studied, pass BigCrush, and are trivially stdlib-only.
//
// Every stochastic component in this repository (workload generators,
// token re-randomization, attack drivers) draws from an explicitly seeded
// *rng.Rand so that experiments are bit-reproducible run to run.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances the given state and returns the next value of the
// SplitMix64 sequence. It is used to expand small seeds into full
// generator state and as the token-generation primitive.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. The zero value is not
// valid; construct with New or NewFromString.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed via SplitMix64,
// as recommended by the xoshiro authors.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// xoshiro must not be seeded with all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, so no check is required.
	return &r
}

// NewFromString seeds a generator from an arbitrary string (e.g. a workload
// name) using FNV-1a, so each named workload gets a stable stream.
func NewFromString(name string) *Rand {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return New(h)
}

// State returns the generator's full internal state, for deterministic
// checkpointing. SetState(State()) on a fresh Rand reproduces the exact
// stream position.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores a state previously captured with State. An all-zero
// state is invalid for xoshiro256** (the stream would be constant), so
// it is replaced with New(0)'s state; State never returns all zeros, so
// round-trips are unaffected.
func (r *Rand) SetState(s [4]uint64) {
	if s == ([4]uint64{}) {
		*r = *New(0)
		return
	}
	r.s = s
}

// Uint64 returns the next value in the stream. It is the xoshiro256**
// step, written with the state in locals and stored back once: that
// form fits the compiler's inlining budget, so Float64, Bool and Uint32
// inline it too and a hot loop pays no call per draw. Geometric repeats
// the step on its own locals.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint32 returns a uniform 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the elements indexed 0..n-1 using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Geometric returns a sample from a geometric distribution with success
// probability p (support {1, 2, ...}), clamped to max. It is used to model
// run lengths (loop trip counts, burst sizes) in workload synthesis.
func (r *Rand) Geometric(p float64, max int) int {
	if p <= 0 || p >= 1 {
		return 1
	}
	// Bool(p) succeeds when Float64() = m/2⁵³ < p, with m the top 53
	// bits of the draw. Scaling by 2⁵³ is exact, so for integer m that is
	// m < ceil(p·2⁵³): the integer compare consumes exactly the draws the
	// Bool(p) loop does and returns the same n. A NaN p never succeeds,
	// so thr stays 0 and every draw up to max fails.
	var thr uint64
	if !math.IsNaN(p) {
		thr = uint64(math.Ceil(p * (1 << 53)))
	}
	// The loop keeps the state in locals and stores it back once:
	// through r.s every draw would store four words and load them again
	// for the next. Its body is Uint64's step, which
	// TestGeometricMatchesBernoulliLoop pins it to.
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	n := 1
	for n < max {
		v := bits.RotateLeft64(s1*5, 7) * 9
		s2 ^= s0
		s3 ^= s1
		s0, s1, s2, s3 = s0^s3, s1^s2, s2^s1<<17, bits.RotateLeft64(s3, 45)
		if v>>11 < thr {
			break
		}
		n++
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return n
}

// Zipf samples ranks in [0, n) from a Zipf-like distribution with
// exponent s: rank k has weight 1/(k+1)^s. NewZipf builds the normalized
// CDF table once, and Next inverts it by binary search over one Float64
// draw, so each sample consumes exactly one draw and allocates nothing.
type Zipf struct {
	n    int
	cdf  []float64
	rand *Rand
}

// NewZipf builds a Zipf sampler over ranks [0, n) with exponent s > 0.
// Lower ranks are more likely. NewZipf panics if n <= 0.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{n: n, cdf: cdf, rand: r}
}

// Next returns the next Zipf-distributed rank.
func (z *Zipf) Next() int {
	u := z.rand.Float64()
	// Binary search the CDF.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
