// Package ittage implements an ITTAGE-style indirect-target predictor
// (Seznec's ITTAGE, the indirect-branch member of the TAGE family): a set
// of tagged tables indexed by hashes of the branch address and
// geometrically increasing path-history lengths. The longest-history
// matching table provides the target; allocation on mispredictions moves
// polymorphic branches into longer-history tables until their context
// disambiguates.
//
// The paper's §IV argues STBPU "can be applied to other branch predictor
// configurations and designs" because it only changes how structures are
// *addressed* and how stored data is *represented*. This package is the
// executable form of that claim for indirect prediction: the Hasher
// interface keys every index/tag computation with ψ (mirroring Rt for
// TAGE), and stored targets arrive already φ-encrypted from the Unit, so
// the ST wrapper needs no ITTAGE-specific logic at all.
package ittage

import (
	"fmt"
	"math"
	"math/bits"

	"stbpu/internal/bpu"
)

// Hasher computes keyed table indexes and tags. The default (nil) is the
// deterministic legacy fold an unprotected core would use; the ST wrapper
// installs a ψ-keyed implementation.
type Hasher interface {
	// ITIndexTag folds the branch address and the bank's folded path
	// history into an index and tag of the given widths.
	ITIndexTag(pc uint64, fold uint64, bank int, indexBits, tagBits uint) (idx, tag uint32)
}

// legacyHasher is the unkeyed baseline fold.
type legacyHasher struct{}

func (legacyHasher) ITIndexTag(pc uint64, fold uint64, bank int, indexBits, tagBits uint) (idx, tag uint32) {
	h := pc ^ pc>>13 ^ fold*0x9e3779b97f4a7c15 ^ uint64(bank)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	idx = uint32(h) & (1<<indexBits - 1)
	tag = uint32(h>>32) & (1<<tagBits - 1)
	return idx, tag
}

// Config sizes the predictor.
type Config struct {
	// Banks is the number of tagged tables (default 4).
	Banks int
	// MinHist and MaxHist bound the geometric history lengths
	// (defaults 4 and 64).
	MinHist, MaxHist int
	// IndexBits and TagBits size each bank (defaults 9 and 8: 512
	// entries per bank, comparable to one BTB way's budget).
	IndexBits, TagBits uint
	// Hasher keys the index/tag computations; nil means the legacy fold.
	Hasher Hasher
}

// DefaultConfig returns the 4-bank, 512-entry/bank geometry.
func DefaultConfig() Config {
	return Config{Banks: 4, MinHist: 4, MaxHist: 64, IndexBits: 9, TagBits: 8}
}

// Validate rejects degenerate geometries.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks > 16 {
		return fmt.Errorf("ittage: banks %d out of range", c.Banks)
	}
	if c.MinHist <= 0 || c.MaxHist < c.MinHist {
		return fmt.Errorf("ittage: history range [%d,%d] invalid", c.MinHist, c.MaxHist)
	}
	if c.IndexBits == 0 || c.IndexBits > 16 || c.TagBits == 0 || c.TagBits > 16 {
		return fmt.Errorf("ittage: index/tag widths %d/%d out of range", c.IndexBits, c.TagBits)
	}
	return nil
}

type entry struct {
	valid  bool
	tag    uint32
	target uint32 // stored (already encrypted) 32-bit target
	conf   uint8  // 0..3 confidence
	useful uint8  // 0..3 usefulness (allocation victim selection)
}

// Predictor is one ITTAGE instance. Not safe for concurrent use (single
// hardware owner, like every structure in this repository).
type Predictor struct {
	cfg    Config
	hasher Hasher
	banks  [][]entry
	lens   []int // history length per bank

	// path history ring: one 8-bit path signature per retired taken
	// branch (real ITTAGE keeps a few address/target bits per branch —
	// a single bit cannot distinguish same-alignment paths).
	hist    []uint8
	histPos int

	// folds[b] is fold(lens[b]) maintained incrementally: OnBranch rotates
	// the dropping signature out and the new one in, so PredictTarget reads
	// a precomputed value instead of re-walking lens[b] ring slots per
	// bank per lookup. rotNew[b] is the constant rotation the newest
	// signature carries in a lens[b]-deep fold: 5*(lens[b]-1) mod 64.
	folds  []uint64
	rotNew []int

	// lookup state consumed by UpdateTarget.
	lastPC       uint64
	lastProvider int // bank of the providing entry, -1 = none
	lastIdx      []uint32
	lastTag      []uint32
	lastStored   uint32

	// Stats.
	Hits, Misses, Allocations uint64
}

// New builds a predictor; the zero-value Config fields take defaults.
func New(cfg Config) (*Predictor, error) {
	if cfg.Banks == 0 {
		cfg = DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := cfg.Hasher
	if h == nil {
		h = legacyHasher{}
	}
	p := &Predictor{
		cfg:     cfg,
		hasher:  h,
		banks:   make([][]entry, cfg.Banks),
		lens:    make([]int, cfg.Banks),
		hist:    make([]uint8, cfg.MaxHist),
		lastIdx: make([]uint32, cfg.Banks),
		lastTag: make([]uint32, cfg.Banks),
	}
	for b := range p.banks {
		p.banks[b] = make([]entry, 1<<cfg.IndexBits)
		// Geometric history lengths from MinHist to MaxHist.
		if cfg.Banks == 1 {
			p.lens[b] = cfg.MinHist
			continue
		}
		ratio := float64(cfg.MaxHist) / float64(cfg.MinHist)
		exp := float64(b) / float64(cfg.Banks-1)
		p.lens[b] = int(float64(cfg.MinHist)*math.Pow(ratio, exp) + 0.5)
	}
	p.folds = make([]uint64, cfg.Banks)
	p.rotNew = make([]int, cfg.Banks)
	for b, l := range p.lens {
		p.rotNew[b] = (5 * (l - 1)) % 64
	}
	return p, nil
}

// Lens exposes the per-bank history lengths (tests verify the geometric
// series).
func (p *Predictor) Lens() []int {
	out := make([]int, len(p.lens))
	copy(out, p.lens)
	return out
}

// fold compresses the most recent n history signatures into a 64-bit
// value (rotate-and-xor, the TAGE circular-shift-register idiom). The hot
// path reads the incrementally maintained p.folds instead; this recompute
// form remains as the reference the incremental test checks against.
func (p *Predictor) fold(n int) uint64 {
	var f uint64
	for i := 0; i < n; i++ {
		sig := p.hist[(p.histPos-1-i+len(p.hist)*2)%len(p.hist)]
		f = (f<<5 | f>>59) ^ uint64(sig)
	}
	return f
}

var _ bpu.IndirectPredictor = (*Predictor)(nil)

// PredictTarget implements bpu.IndirectPredictor: longest matching bank
// wins.
func (p *Predictor) PredictTarget(pc uint64) (uint32, bool) {
	p.lastPC = pc
	p.lastProvider = -1
	for b := p.cfg.Banks - 1; b >= 0; b-- {
		idx, tag := p.hasher.ITIndexTag(pc, p.folds[b], b, p.cfg.IndexBits, p.cfg.TagBits)
		p.lastIdx[b], p.lastTag[b] = idx, tag
		if p.lastProvider < 0 {
			e := &p.banks[b][idx]
			if e.valid && e.tag == tag {
				p.lastProvider = b
				p.lastStored = e.target
			}
		}
	}
	if p.lastProvider < 0 {
		p.Misses++
		return 0, false
	}
	p.Hits++
	return p.lastStored, true
}

// UpdateTarget implements bpu.IndirectPredictor: trains the provider and
// allocates a longer-history entry on a target change.
func (p *Predictor) UpdateTarget(pc uint64, stored uint32) {
	if pc != p.lastPC {
		// Out-of-contract call (e.g. predictor attached mid-stream):
		// recompute lookup state.
		p.PredictTarget(pc)
	}
	correct := p.lastProvider >= 0 && p.lastStored == stored

	if p.lastProvider >= 0 {
		e := &p.banks[p.lastProvider][p.lastIdx[p.lastProvider]]
		if correct {
			if e.conf < 3 {
				e.conf++
			}
			if e.useful < 3 {
				e.useful++
			}
			return
		}
		// Wrong target: lose confidence; replace once exhausted.
		if e.conf > 0 {
			e.conf--
		} else {
			e.target = stored
			e.conf = 1
		}
	}

	// Allocate in a bank with longer history than the provider, stealing
	// the least-useful entry (ITTAGE's usefulness policy).
	from := p.lastProvider + 1
	if from >= p.cfg.Banks {
		return
	}
	best, bestUseful := -1, uint8(255)
	for b := from; b < p.cfg.Banks; b++ {
		e := &p.banks[b][p.lastIdx[b]]
		if !e.valid {
			best, bestUseful = b, 0
			break
		}
		if e.useful < bestUseful {
			best, bestUseful = b, e.useful
		}
	}
	if best < 0 {
		return
	}
	victim := &p.banks[best][p.lastIdx[best]]
	if victim.valid && victim.useful > 0 {
		// Protected victim: decay usefulness instead of stealing (the
		// global decay of real ITTAGE, applied locally).
		victim.useful--
		return
	}
	*victim = entry{valid: true, tag: p.lastTag[best], target: stored, conf: 1}
	p.Allocations++
}

// OnBranch implements bpu.IndirectPredictor: push one path signature
// derived from the branch, its target, and its outcome. Each bank's fold
// advances incrementally — rotate the signature dropping out of its window
// away, rotate the whole fold down one step, and mix the new signature in
// at the window head — which keeps every p.folds[b] equal to what
// fold(p.lens[b]) would recompute from the ring.
func (p *Predictor) OnBranch(pc, target uint64, taken bool) {
	h := pc ^ target>>2 ^ pc>>11
	h ^= h >> 17
	sig := uint8(h^h>>8) << 1
	if taken {
		sig |= 1
	}
	// histPos stays in [0,n) and every lens[b] in [1,n], so the ring
	// slot l signatures back wraps with one compare.
	n := len(p.hist)
	for b, l := range p.lens {
		i := p.histPos - l
		if i < 0 {
			i += n
		}
		out := uint64(p.hist[i])
		f := bits.RotateLeft64(p.folds[b]^out, -5)
		p.folds[b] = f ^ bits.RotateLeft64(uint64(sig), p.rotNew[b])
	}
	p.hist[p.histPos] = sig
	p.histPos++
	if p.histPos == n {
		p.histPos = 0
	}
}

// Flush implements bpu.IndirectPredictor.
func (p *Predictor) Flush() {
	for b := range p.banks {
		for i := range p.banks[b] {
			p.banks[b][i] = entry{}
		}
	}
	for i := range p.hist {
		p.hist[i] = 0
	}
	for b := range p.folds {
		p.folds[b] = 0
	}
	p.histPos = 0
	p.lastProvider = -1
}

// HitRate reports the fraction of lookups served by a tagged bank.
func (p *Predictor) HitRate() float64 {
	total := p.Hits + p.Misses
	if total == 0 {
		return 0
	}
	return float64(p.Hits) / float64(total)
}
