package perceptron

// The previous perceptron kernel, kept verbatim as the reference the
// live kernel is stepped against (reference_test.go): one int16 slice
// per weight row and branchy saturating training. Only the names
// differ (a ref prefix); Config, weightMax and absInt are shared.

import "stbpu/internal/snap"

// refPredictor is the previous perceptron predictor.
type refPredictor struct {
	cfg     Config
	index   IndexFunc
	weights [][]int16 // rows × (1 bias + HistoryLen)
	hist    uint64    // most recent outcome in bit 0
	theta   int

	// lookup stash.
	lastIdx uint32
	lastSum int
	lastPC  uint64
}

// refNew builds a reference predictor from the configuration.
func refNew(cfg Config) *refPredictor {
	if cfg.TableBits == 0 {
		cfg.TableBits = 10
	}
	if cfg.HistoryLen <= 0 || cfg.HistoryLen > 64 {
		cfg.HistoryLen = 32
	}
	idx := cfg.Index
	if idx == nil {
		bits := cfg.TableBits
		idx = func(pc uint64) uint32 {
			return uint32((pc>>2)^(pc>>(2+uint64(bits)))) & (1<<bits - 1)
		}
	}
	rows := 1 << cfg.TableBits
	w := make([][]int16, rows)
	for i := range w {
		w[i] = make([]int16, cfg.HistoryLen+1)
	}
	return &refPredictor{
		cfg:     cfg,
		index:   idx,
		weights: w,
		theta:   int(1.93*float64(cfg.HistoryLen)) + 14,
	}
}

// Predict implements bpu.DirectionPredictor. The dot product is computed
// branchlessly: each history bit maps to ±1 via (bit<<1)-1, so the inner
// loop is pure multiply-accumulate with no per-bit branch to mispredict
// (ironically the costliest hazard in a branch predictor's own hot loop).
func (p *refPredictor) Predict(pc uint64) bool {
	idx := p.index(pc) & (1<<p.cfg.TableBits - 1)
	row := p.weights[idx]
	sum := int(row[0]) // bias
	h := p.hist
	for _, w := range row[1:] {
		sum += int(w) * (int(h&1)<<1 - 1)
		h >>= 1
	}
	p.lastIdx, p.lastSum, p.lastPC = idx, sum, pc
	return sum >= 0
}

// Update implements bpu.DirectionPredictor.
func (p *refPredictor) Update(pc uint64, taken bool) {
	if p.lastPC != pc {
		p.Predict(pc)
	}
	pred := p.lastSum >= 0
	if pred != taken || absInt(p.lastSum) <= p.theta {
		row := p.weights[p.lastIdx]
		refBump(&row[0], taken)
		h := p.hist
		for i := 1; i < len(row); i++ {
			refBump(&row[i], (h&1 == 1) == taken)
			h >>= 1
		}
	}
	p.hist <<= 1
	if taken {
		p.hist |= 1
	}
}

// Flush implements bpu.DirectionPredictor.
func (p *refPredictor) Flush() {
	for i := range p.weights {
		for j := range p.weights[i] {
			p.weights[i][j] = 0
		}
	}
	p.hist = 0
	p.lastPC, p.lastIdx, p.lastSum = 0, 0, 0
}

func refBump(w *int16, up bool) {
	if up {
		if *w < weightMax {
			*w++
		}
	} else if *w > -weightMax-1 {
		*w--
	}
}

// EncodeState appends the predictor's mutable state to w.
func (p *refPredictor) EncodeState(w *snap.Writer) {
	w.Len(len(p.weights))
	for i := range p.weights {
		w.I16s(p.weights[i])
	}
	w.U64(p.hist)
}
