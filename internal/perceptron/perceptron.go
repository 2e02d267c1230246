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
	weights []int8 // rows of 1 bias + HistoryLen weights, row i at i*stride
	stride  int    // 1 + HistoryLen
	hist    uint64 // most recent outcome in bit 0
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
	stride := cfg.HistoryLen + 1
	return &Predictor{
		cfg:     cfg,
		index:   idx,
		weights: make([]int8, stride<<cfg.TableBits),
		stride:  stride,
		theta:   int(1.93*float64(cfg.HistoryLen)) + 14,
	}
}

// Config returns the instance configuration.
func (p *Predictor) Config() Config { return p.cfg }

// row returns table row idx: its bias weight, then one weight per
// history bit, most recent first.
func (p *Predictor) row(idx uint32) []int8 {
	lo := int(idx) * p.stride
	return p.weights[lo : lo+p.stride : lo+p.stride]
}

// Predict implements bpu.DirectionPredictor. The dot product is computed
// branchlessly: each history bit maps to ±1 via (bit<<1)-1, so the inner
// loop is pure multiply-accumulate with no per-bit branch to mispredict
// (ironically the costliest hazard in a branch predictor's own hot loop).
func (p *Predictor) Predict(pc uint64) bool {
	idx := p.index(pc) & (1<<p.cfg.TableBits - 1)
	row := p.row(idx)
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
	t := uint64(0)
	if taken {
		t = 1
	}
	if (p.lastSum >= 0) != taken || absInt(p.lastSum) <= p.theta {
		// Every weight steps ±1 toward agreement with the outcome: +1
		// where its input (the bias's constant 1, a history bit) matched
		// it. agree's bit i-1 is set where history bit i-1 equals taken.
		row := p.row(p.lastIdx)
		row[0] = step(row[0], t)
		agree := p.hist ^ (t - 1)
		for i := 1; i < len(row); i++ {
			row[i] = step(row[i], agree&1)
			agree >>= 1
		}
	}
	p.hist = p.hist<<1 | t
}

// Flush implements bpu.DirectionPredictor.
func (p *Predictor) Flush() {
	clear(p.weights)
	p.hist = 0
	p.lastPC, p.lastIdx, p.lastSum = 0, 0, 0
}

// weightMax bounds the 8-bit saturating weights to [-weightMax-1, weightMax].
const weightMax = 127

// step moves w one toward saturation: up when up is 1, down when it is
// 0. min and max clamp without a branch.
func step(w int8, up uint64) int8 {
	return int8(min(max(int(w)+int(up<<1)-1, -weightMax-1), weightMax))
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
