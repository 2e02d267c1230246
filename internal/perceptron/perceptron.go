// Package perceptron implements the perceptron branch predictor of Jiménez
// & Lin (HPCA 2001), the fourth predictor model of the paper's gem5
// evaluation ("PerceptronBP", §VII-B2).
//
// A table of signed weight vectors is indexed by a hash of the branch
// address; the prediction is the sign of the dot product between the
// weights and the recent global history (encoded ±1), plus a bias weight.
// Training bumps weights when the prediction was wrong or the magnitude of
// the output fell below the adaptive threshold θ = ⌊1.93·h + 14⌋.
//
// The index computation goes through IndexFunc so the STBPU wrapper can
// substitute the keyed Rp remapping function.
package perceptron

import "stbpu/internal/bpu"

// IndexFunc maps a branch address to a weight-table row.
type IndexFunc func(pc uint64) uint32

// Config sizes a perceptron predictor.
type Config struct {
	// TableBits sizes the weight table (Table II's Rp produces a 10-bit
	// index).
	TableBits uint
	// HistoryLen is the number of history bits (weights per row, plus
	// bias).
	HistoryLen int
	// Index is the row hash; nil means the legacy fold of the address.
	Index IndexFunc
}

// DefaultConfig matches the paper's PerceptronBP scale: 1024 rows of
// 32-bit-history perceptrons.
func DefaultConfig() Config {
	return Config{TableBits: 10, HistoryLen: 32}
}

// Predictor is a perceptron branch predictor implementing
// bpu.DirectionPredictor.
type Predictor struct {
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

var _ bpu.DirectionPredictor = (*Predictor)(nil)

// New builds a predictor from the configuration.
func New(cfg Config) *Predictor {
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
	return &Predictor{
		cfg:     cfg,
		index:   idx,
		weights: w,
		theta:   int(1.93*float64(cfg.HistoryLen)) + 14,
	}
}

// Config returns the instance configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Predict implements bpu.DirectionPredictor. The dot product is computed
// branchlessly: each history bit maps to ±1 via (bit<<1)-1, so the inner
// loop is pure multiply-accumulate with no per-bit branch to mispredict
// (ironically the costliest hazard in a branch predictor's own hot loop).
func (p *Predictor) Predict(pc uint64) bool {
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
func (p *Predictor) Update(pc uint64, taken bool) {
	if p.lastPC != pc {
		p.Predict(pc)
	}
	pred := p.lastSum >= 0
	if pred != taken || absInt(p.lastSum) <= p.theta {
		row := p.weights[p.lastIdx]
		bump(&row[0], taken)
		h := p.hist
		for i := 1; i < len(row); i++ {
			bump(&row[i], (h&1 == 1) == taken)
			h >>= 1
		}
	}
	p.hist <<= 1
	if taken {
		p.hist |= 1
	}
}

// Flush implements bpu.DirectionPredictor.
func (p *Predictor) Flush() {
	for i := range p.weights {
		for j := range p.weights[i] {
			p.weights[i][j] = 0
		}
	}
	p.hist = 0
	p.lastPC, p.lastIdx, p.lastSum = 0, 0, 0
}

const weightMax = 127 // 8-bit saturating weights, stored in int16 for headroom checks

func bump(w *int16, up bool) {
	if up {
		if *w < weightMax {
			*w++
		}
	} else if *w > -weightMax-1 {
		*w--
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
