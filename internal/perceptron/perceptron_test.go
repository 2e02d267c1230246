package perceptron

import (
	"testing"

	"stbpu/internal/rng"
)

func train(p *Predictor, n int, pattern func(i int) (uint64, bool)) float64 {
	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		pc, taken := pattern(i)
		pred := p.Predict(pc)
		if i >= n/2 {
			counted++
			if pred == taken {
				correct++
			}
		}
		p.Update(pc, taken)
	}
	return float64(correct) / float64(counted)
}

func TestBiasedBranch(t *testing.T) {
	p := New(DefaultConfig())
	if acc := train(p, 1000, func(i int) (uint64, bool) { return 0x401000, true }); acc < 0.99 {
		t.Errorf("biased accuracy %.3f", acc)
	}
}

func TestAlternatingPattern(t *testing.T) {
	p := New(DefaultConfig())
	if acc := train(p, 2000, func(i int) (uint64, bool) { return 0x402000, i%2 == 0 }); acc < 0.95 {
		t.Errorf("alternating accuracy %.3f", acc)
	}
}

func TestLinearlySeparablePattern(t *testing.T) {
	// taken = h[2] XOR is NOT linearly separable; taken = h[2] alone is.
	// The perceptron must nail single-tap correlation.
	p := New(DefaultConfig())
	var hist uint64
	correct, counted := 0, 0
	const n = 4000
	for i := 0; i < n; i++ {
		taken := hist>>2&1 == 1
		pred := p.Predict(0x403000)
		if i > n/2 {
			counted++
			if pred == taken {
				correct++
			}
		}
		p.Update(0x403000, taken)
		hist = hist<<1 | b2u(taken)
	}
	if acc := float64(correct) / float64(counted); acc < 0.97 {
		t.Errorf("single-tap accuracy %.3f", acc)
	}
}

func TestXorPatternIsHard(t *testing.T) {
	// XOR of two *independent random* history bits is not linearly
	// separable: the classic perceptron weakness. Two feeder branches
	// take random outcomes; a third branch's outcome is their XOR.
	// Accuracy must stay near chance — this validates we implemented a
	// real linear perceptron, not a lookup table.
	p := New(DefaultConfig())
	r := rng.New(21)
	correct, counted := 0, 0
	const n = 4000
	for i := 0; i < n; i++ {
		a, b := r.Bool(0.5), r.Bool(0.5)
		p.Predict(0x404100)
		p.Update(0x404100, a)
		p.Predict(0x404200)
		p.Update(0x404200, b)
		taken := a != b
		pred := p.Predict(0x404000)
		if i > n/2 {
			counted++
			if pred == taken {
				correct++
			}
		}
		p.Update(0x404000, taken)
	}
	if acc := float64(correct) / float64(counted); acc > 0.75 {
		t.Errorf("XOR accuracy %.3f: a linear perceptron should not solve XOR", acc)
	}
}

func TestCustomIndexFunc(t *testing.T) {
	called := 0
	cfg := DefaultConfig()
	cfg.Index = func(pc uint64) uint32 { called++; return 7 }
	p := New(cfg)
	p.Predict(0x1000)
	p.Update(0x1000, true)
	if called == 0 {
		t.Error("custom index function not used")
	}
}

func TestFlush(t *testing.T) {
	p := New(DefaultConfig())
	train(p, 500, func(i int) (uint64, bool) { return 0x401000, true })
	p.Flush()
	// Zero weights give sum 0, which predicts taken by the >= convention;
	// what matters is that the trained bias is gone.
	if p.lastSum != 0 {
		p.Predict(0x401000)
	}
	p.Predict(0x401000)
	if p.lastSum != 0 {
		t.Errorf("flushed perceptron kept weights: sum %d", p.lastSum)
	}
}

func TestWeightSaturation(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 10000; i++ {
		p.Predict(0x401000)
		p.Update(0x401000, true)
	}
	for _, w := range p.row(p.lastIdx) {
		if w > weightMax || w < -weightMax-1 {
			t.Fatalf("weight %d out of saturation range", w)
		}
	}
}

func TestUpdateWithoutPredictRecovers(t *testing.T) {
	p := New(DefaultConfig())
	p.Update(0x999, false)
	p.Predict(0x999)
}

func TestDefaultsFilled(t *testing.T) {
	p := New(Config{})
	if p.cfg.TableBits != 10 || p.cfg.HistoryLen != 32 {
		t.Errorf("defaults not applied: %+v", p.cfg)
	}
	h := p.cfg.HistoryLen
	if p.theta != int(1.93*float64(h))+14 {
		t.Errorf("theta = %d", p.theta)
	}
}

func TestManyBranchesNoInterferenceCollapse(t *testing.T) {
	// Different rows must train independently.
	p := New(DefaultConfig())
	r := rng.New(5)
	bias := map[uint64]bool{}
	correct, total := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		pc := 0x400000 + uint64(r.Intn(64))*64
		want, ok := bias[pc]
		if !ok {
			want = r.Bool(0.5)
			bias[pc] = want
		}
		pred := p.Predict(pc)
		if i > n/2 {
			total++
			if pred == want {
				correct++
			}
		}
		p.Update(pc, want)
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Errorf("per-branch bias accuracy %.3f", acc)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func BenchmarkPredictUpdate(b *testing.B) {
	p := New(DefaultConfig())
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i%512)*16
		taken := p.Predict(pc)
		p.Update(pc, taken != (i%5 == 0))
	}
}
