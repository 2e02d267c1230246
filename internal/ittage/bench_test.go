package ittage

import (
	"testing"

	"stbpu/internal/rng"
)

const benchMask = 1<<14 - 1

// benchStream emits an indirect-heavy branch mix: polymorphic call sites
// whose targets correlate with recent path history.
func benchStream() (pcs, targets []uint64, taken []bool) {
	pcs = make([]uint64, benchMask+1)
	targets = make([]uint64, benchMask+1)
	taken = make([]bool, benchMask+1)
	s := uint64(0x17a6e)
	for i := range pcs {
		r := rng.SplitMix64(&s)
		pcs[i] = 0x400000 + (r%64)<<3
		targets[i] = 0x600000 + (r>>6%8)<<4 + pcs[i]%3<<8
		taken[i] = r>>20&3 != 0
	}
	return pcs, targets, taken
}

func benchPredictor(b *testing.B) (*Predictor, []uint64, []uint64, []bool) {
	b.Helper()
	p, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pcs, targets, taken := benchStream()
	for i := range pcs {
		p.PredictTarget(pcs[i])
		p.UpdateTarget(pcs[i], uint32(targets[i]))
		p.OnBranch(pcs[i], targets[i], taken[i])
	}
	return p, pcs, targets, taken
}

func BenchmarkPredict(b *testing.B) {
	p, pcs, targets, taken := benchPredictor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictTarget(pcs[i&benchMask])
		p.OnBranch(pcs[i&benchMask], targets[i&benchMask], taken[i&benchMask])
	}
}

// BenchmarkUpdate measures the full lookup/train/history cycle one
// retired indirect branch costs.
func BenchmarkUpdate(b *testing.B) {
	p, pcs, targets, taken := benchPredictor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictTarget(pcs[i&benchMask])
		p.UpdateTarget(pcs[i&benchMask], uint32(targets[i&benchMask]))
		p.OnBranch(pcs[i&benchMask], targets[i&benchMask], taken[i&benchMask])
	}
}

// TestIncrementalFoldMatchesRecompute pins the optimization contract: the
// incrementally maintained per-bank folds must equal a from-scratch
// recompute of the ring at every step, including after a flush. Each
// geometry runs past 3×MaxHist branches on both sides of the flush,
// so the ring position wraps several times; the second has a ring length
// that is not a power of two.
func TestIncrementalFoldMatchesRecompute(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(),
		{Banks: 3, MinHist: 5, MaxHist: 23, IndexBits: 9, TagBits: 8},
	} {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := uint64(42)
		check := func(step int) {
			t.Helper()
			for b, l := range p.lens {
				if got, want := p.folds[b], p.fold(l); got != want {
					t.Fatalf("MaxHist %d step %d bank %d: incremental fold %#x != recomputed %#x", cfg.MaxHist, step, b, got, want)
				}
			}
		}
		for i := 0; i < 500; i++ {
			r := rng.SplitMix64(&s)
			p.OnBranch(r&0xffff, r>>16&0xffff, r>>32&1 == 1)
			check(i)
			if i == 250 {
				p.Flush()
				check(i)
			}
		}
	}
}
