// Package tage implements the TAGE-SC-L conditional branch predictor
// (Seznec, CBP 2016) in the two configurations the paper evaluates in gem5
// (§VII-B2): an 8KB and a 64KB variant. The implementation covers the
// TAgged GEometric base predictor, the loop predictor (L), and a
// GEHL-style statistical corrector (SC).
//
// Index and tag computations flow through a Hasher so the STBPU wrapper
// (internal/core) can substitute the keyed Rt remapping function without
// touching prediction logic — the property STBPU relies on to stay
// predictor-agnostic (§II-A).
package tage

import (
	"fmt"

	"stbpu/internal/bpu"
)

// Hasher computes table indices and tags. LegacyHasher reproduces the
// standard TAGE folded-history hash; the ST wrapper substitutes keyed
// remapping.
type Hasher interface {
	// BankIndexTag maps (pc, folded histories, bank) to an index and tag
	// of the requested widths.
	BankIndexTag(pc uint64, fIdx, fTag uint64, bank int, indexBits, tagBits uint) (idx, tag uint32)
	// TableIndex maps pc (optionally mixed with folded history) to an
	// index for the untagged side structures (bimodal, SC, loop).
	TableIndex(pc uint64, fold uint64, bits uint) uint32
}

// LegacyHasher is the unprotected deterministic hash of standard TAGE.
type LegacyHasher struct{}

var _ Hasher = LegacyHasher{}

// BankIndexTag implements Hasher.
func (LegacyHasher) BankIndexTag(pc uint64, fIdx, fTag uint64, bank int, indexBits, tagBits uint) (idx, tag uint32) {
	h := pc ^ (pc >> (indexBits - uint(bank)&7)) ^ fIdx
	idx = uint32(h) & (1<<indexBits - 1)
	t := pc ^ fTag ^ (fTag << 1)
	tag = uint32(t) & (1<<tagBits - 1)
	return idx, tag
}

// TableIndex implements Hasher.
func (LegacyHasher) TableIndex(pc uint64, fold uint64, bits uint) uint32 {
	return uint32((pc>>2)^fold) & (1<<bits - 1)
}

// Config sizes a TAGE-SC-L instance.
type Config struct {
	// Name labels the model in reports ("TAGE_SC_L_8KB"...).
	Name string
	// HistLens are the geometric history lengths, one per tagged bank.
	HistLens []int
	// IndexBits/TagBits size the tagged banks (Table II: 10/8 for the
	// 8KB configuration, 13/12 for 64KB).
	IndexBits, TagBits uint
	// BimodalBits sizes the base predictor.
	BimodalBits uint
	// UseSC enables the statistical corrector.
	UseSC bool
	// UseLoop enables the loop predictor.
	UseLoop bool
	// Hasher is the index computation; nil means LegacyHasher.
	Hasher Hasher
}

// Config8KB is the small TAGE-SC-L of the paper's evaluation.
func Config8KB() Config {
	return Config{
		Name:        "TAGE_SC_L_8KB",
		HistLens:    []int{5, 13, 34, 88},
		IndexBits:   10,
		TagBits:     8,
		BimodalBits: 12,
		UseSC:       true,
		UseLoop:     true,
	}
}

// Config64KB is the large TAGE-SC-L of the paper's evaluation.
func Config64KB() Config {
	return Config{
		Name:        "TAGE_SC_L_64KB",
		HistLens:    []int{4, 9, 19, 42, 91, 199, 435},
		IndexBits:   13,
		TagBits:     12,
		BimodalBits: 13,
		UseSC:       true,
		UseLoop:     true,
	}
}

// entry is one tagged-bank slot: a 3-bit signed counter, tag, and 2-bit
// usefulness.
type entry struct {
	valid  bool
	tag    uint32
	ctr    int8 // -4..3, taken when >= 0
	useful uint8
}

// folded maintains a history register folded to a fixed width, updated
// incrementally as outcomes shift in and out (standard TAGE hardware).
// outShift and mask are fixed per register, precomputed at construction so
// the per-branch update is pure shift/xor work.
type folded struct {
	val      uint64
	compLen  uint   // folded width
	outShift uint   // origLen % compLen
	mask     uint64 // 1<<compLen - 1
}

func newFolded(origLen, compLen uint) folded {
	return folded{compLen: compLen, outShift: origLen % compLen, mask: 1<<compLen - 1}
}

// update shifts newBit in and oldBit (the outcome origLen steps ago) out.
func (f *folded) update(newBit, oldBit uint64) {
	f.val = (f.val << 1) | newBit
	f.val ^= oldBit << f.outShift
	f.val ^= f.val >> f.compLen
	f.val &= f.mask
}

func (f *folded) reset() { f.val = 0 }

// maxHistoryBits bounds the outcome ring buffer.
const maxHistoryBits = 1024

// loopEntry tracks one loop branch: its trip count and confidence.
type loopEntry struct {
	tag        uint32
	tripCount  uint16
	currentIt  uint16
	confidence uint8
	age        uint8
}

// scTableBits sizes each statistical-corrector table.
const scTableBits = 10

// Predictor is a TAGE-SC-L instance. It implements bpu.DirectionPredictor
// with the stash-between-Predict-and-Update contract.
type Predictor struct {
	cfg    Config
	hasher Hasher

	bimodal []int8 // 2-bit counters as -2..1, taken when >= 0
	banks   [][]entry

	// Global outcome history ring plus folded registers per bank.
	hist    [maxHistoryBits]uint8
	histPos int
	histLen int
	fIdx    []folded
	fTag    []folded
	fTag2   []folded
	// oldPos[i] is the ring index of the outcome HistLens[i] steps back,
	// advanced in lockstep with histPos so pushHistory never normalizes a
	// negative position. scOldPos is the same for the SC history lengths.
	oldPos   []int32
	scOldPos []int32

	useAltOnNA int8 // -8..7: prefer altpred for newly allocated entries

	// Loop predictor.
	loops []loopEntry

	// Statistical corrector: GEHL tables of 6-bit signed counters over
	// short folded histories.
	scTables [][]int8
	scLens   []int
	scFolds  []folded
	scThresh int

	// TageMispredicts counts wrong final predictions in which TAGE's
	// tagged banks provided the prediction — the event the ST models
	// monitor with a dedicated threshold register (§VII-B2).
	TageMispredicts uint64

	// lookup stash (Predict fills, Update consumes).
	last lookup
}

type lookup struct {
	pc        uint64
	provider  int // bank index, -1 = bimodal
	altBank   int // -1 = bimodal
	provIdx   uint32
	altIdx    uint32
	bimIdx    uint32
	tags      []uint32
	idxs      []uint32
	tagePred  bool
	altPred   bool
	finalPred bool
	usedLoop  bool
	loopPred  bool
	loopIdx   int
	scSum     int
	scIdxs    []uint32
	weakProv  bool
}

var _ bpu.DirectionPredictor = (*Predictor)(nil)

// New builds a predictor from the configuration.
func New(cfg Config) *Predictor {
	if len(cfg.HistLens) == 0 {
		panic("tage: config needs at least one tagged bank")
	}
	h := cfg.Hasher
	if h == nil {
		h = LegacyHasher{}
	}
	p := &Predictor{cfg: cfg, hasher: h}
	p.bimodal = make([]int8, 1<<cfg.BimodalBits)
	for i := range p.bimodal {
		p.bimodal[i] = -1 // weakly not-taken
	}
	p.banks = make([][]entry, len(cfg.HistLens))
	for i := range p.banks {
		p.banks[i] = make([]entry, 1<<cfg.IndexBits)
	}
	for _, l := range cfg.HistLens {
		if l >= maxHistoryBits {
			panic(fmt.Sprintf("tage: history length %d exceeds %d", l, maxHistoryBits))
		}
		p.fIdx = append(p.fIdx, newFolded(uint(l), cfg.IndexBits))
		p.fTag = append(p.fTag, newFolded(uint(l), cfg.TagBits))
		p.fTag2 = append(p.fTag2, newFolded(uint(l), cfg.TagBits-1))
	}
	p.oldPos = make([]int32, len(cfg.HistLens))
	if cfg.UseLoop {
		p.loops = make([]loopEntry, 64)
	}
	if cfg.UseSC {
		p.scLens = []int{0, 5, 14, 32}
		p.scTables = make([][]int8, len(p.scLens))
		for i := range p.scTables {
			p.scTables[i] = make([]int8, 1<<scTableBits)
		}
		for _, l := range p.scLens {
			p.scFolds = append(p.scFolds, newFolded(uint(max(l, 1)), scTableBits))
		}
		p.scThresh = 6
	}
	p.scOldPos = make([]int32, len(p.scLens))
	p.resetOldPositions()
	p.last.tags = make([]uint32, len(cfg.HistLens))
	p.last.idxs = make([]uint32, len(cfg.HistLens))
	p.last.scIdxs = make([]uint32, len(p.scTables))
	return p
}

// Config returns the instance configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Predict implements bpu.DirectionPredictor.
func (p *Predictor) Predict(pc uint64) bool {
	l := &p.last
	l.pc = pc
	l.provider, l.altBank = -1, -1
	l.usedLoop = false

	l.bimIdx = p.hasher.TableIndex(pc, 0, p.cfg.BimodalBits)
	bimPred := p.bimodal[l.bimIdx] >= 0

	// Tagged lookups, longest history wins. One pass computes every bank's
	// index/tag (Update's allocation needs them all) and picks the provider
	// and alternate as it goes.
	for b := len(p.banks) - 1; b >= 0; b-- {
		idx, tag := p.hasher.BankIndexTag(pc, p.fIdx[b].val, p.fTag[b].val^(p.fTag2[b].val<<1), b, p.cfg.IndexBits, p.cfg.TagBits)
		l.idxs[b], l.tags[b] = idx, tag
		if e := &p.banks[b][idx]; e.valid && e.tag == tag {
			if l.provider < 0 {
				l.provider = b
				l.provIdx = idx
			} else if l.altBank < 0 {
				l.altBank = b
				l.altIdx = idx
			}
		}
	}

	if l.altBank >= 0 {
		l.altPred = p.banks[l.altBank][l.altIdx].ctr >= 0
	} else {
		l.altPred = bimPred
	}
	if l.provider >= 0 {
		e := &p.banks[l.provider][l.provIdx]
		l.tagePred = e.ctr >= 0
		// Newly allocated (weak, not yet useful) entries may be worse
		// than the alternate prediction.
		l.weakProv = (e.ctr == 0 || e.ctr == -1) && e.useful == 0
		if l.weakProv && p.useAltOnNA >= 0 {
			l.tagePred = l.altPred
		}
	} else {
		l.tagePred = bimPred
		l.altPred = bimPred
	}
	l.finalPred = l.tagePred

	// Statistical corrector: revert low-confidence TAGE predictions when
	// the perceptron-style sum disagrees strongly.
	if p.cfg.UseSC {
		sum := 0
		for i := range p.scTables {
			idx := p.hasher.TableIndex(pc, p.scFolds[i].val, scTableBits)
			l.scIdxs[i] = idx
			sum += int(p.scTables[i][idx])
		}
		if l.tagePred {
			sum += p.scThresh / 2
		} else {
			sum -= p.scThresh / 2
		}
		l.scSum = sum
		scPred := sum >= 0
		if scPred != l.tagePred && absInt(sum) > p.scThresh {
			l.finalPred = scPred
		}
	}

	// Loop predictor overrides with high confidence.
	if p.cfg.UseLoop {
		if idx, e := p.loopLookup(pc); e != nil && e.confidence >= 3 && e.tripCount > 0 {
			l.usedLoop = true
			l.loopIdx = idx
			l.loopPred = e.currentIt+1 != e.tripCount
			l.finalPred = l.loopPred
		}
	}
	return l.finalPred
}

// Update implements bpu.DirectionPredictor.
func (p *Predictor) Update(pc uint64, taken bool) {
	l := &p.last
	if l.pc != pc {
		// Contract violation or flush between predict/update: fall back
		// to a fresh lookup so training still happens.
		p.Predict(pc)
	}
	mispredicted := l.finalPred != taken
	if mispredicted && l.provider >= 0 {
		p.TageMispredicts++
	}

	// Loop predictor training.
	if p.cfg.UseLoop {
		p.loopUpdate(pc, taken)
	}

	// Statistical corrector training: on mispredict or weak sum.
	if p.cfg.UseSC && (mispredicted || absInt(l.scSum) <= p.scThresh) {
		for i := range p.scTables {
			c := p.scTables[i][l.scIdxs[i]]
			if taken && c < 31 {
				p.scTables[i][l.scIdxs[i]] = c + 1
			} else if !taken && c > -32 {
				p.scTables[i][l.scIdxs[i]] = c - 1
			}
		}
	}

	// useAltOnNA bookkeeping.
	if l.provider >= 0 && l.weakProv {
		e := &p.banks[l.provider][l.provIdx]
		tageWasRight := (e.ctr >= 0) == taken
		altWasRight := l.altPred == taken
		if tageWasRight != altWasRight {
			if altWasRight {
				if p.useAltOnNA < 7 {
					p.useAltOnNA++
				}
			} else if p.useAltOnNA > -8 {
				p.useAltOnNA--
			}
		}
	}

	// Provider update.
	if l.provider >= 0 {
		e := &p.banks[l.provider][l.provIdx]
		updateCtr(&e.ctr, taken)
		// Usefulness trains only when provider and alternate disagreed:
		// the provider is useful exactly when it beat the alternate.
		if l.tagePred != l.altPred {
			if l.tagePred == taken && e.useful < 3 {
				e.useful++
			} else if l.tagePred != taken && e.useful > 0 {
				e.useful--
			}
		}
	} else {
		// Bimodal update.
		c := &p.bimodal[l.bimIdx]
		if taken && *c < 1 {
			*c++
		} else if !taken && *c > -2 {
			*c--
		}
	}

	// Allocation on TAGE mispredict: claim an entry in a longer bank.
	tageWrong := l.tagePred != taken
	if tageWrong && l.provider < len(p.banks)-1 {
		allocated := false
		for b := l.provider + 1; b < len(p.banks); b++ {
			e := &p.banks[b][l.idxs[b]]
			if !e.valid || e.useful == 0 {
				*e = entry{valid: true, tag: l.tags[b], ctr: ctrInit(taken)}
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay usefulness so future allocations succeed.
			for b := l.provider + 1; b < len(p.banks); b++ {
				e := &p.banks[b][l.idxs[b]]
				if e.useful > 0 {
					e.useful--
				}
			}
		}
	}

	p.pushHistory(taken)
}

// Flush implements bpu.DirectionPredictor.
func (p *Predictor) Flush() {
	for i := range p.bimodal {
		p.bimodal[i] = -1
	}
	for b := range p.banks {
		for i := range p.banks[b] {
			p.banks[b][i] = entry{}
		}
	}
	for i := range p.fIdx {
		p.fIdx[i].reset()
		p.fTag[i].reset()
		p.fTag2[i].reset()
	}
	for i := range p.scFolds {
		p.scFolds[i].reset()
	}
	for i := range p.scTables {
		for j := range p.scTables[i] {
			p.scTables[i][j] = 0
		}
	}
	for i := range p.loops {
		p.loops[i] = loopEntry{}
	}
	p.hist = [maxHistoryBits]uint8{}
	p.histPos, p.histLen = 0, 0
	p.resetOldPositions()
	p.useAltOnNA = 0
	p.last = lookup{
		tags:   p.last.tags,
		idxs:   p.last.idxs,
		scIdxs: p.last.scIdxs,
	}
}

// resetOldPositions re-derives every old-outcome ring index from histPos
// (construction and flush; steady state advances them incrementally).
func (p *Predictor) resetOldPositions() {
	for i, l := range p.cfg.HistLens {
		p.oldPos[i] = int32((p.histPos - l + maxHistoryBits) % maxHistoryBits)
	}
	for i, l := range p.scLens {
		p.scOldPos[i] = int32((p.histPos - l + maxHistoryBits) % maxHistoryBits)
	}
}

// pushHistory shifts an outcome into the ring and all folded registers.
// The outgoing-outcome positions are maintained incrementally (one
// compare-and-wrap per bank) instead of re-normalized with loops and
// modulo arithmetic on every retired branch.
func (p *Predictor) pushHistory(taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	p.hist[p.histPos] = uint8(bit)
	for i := range p.fIdx {
		ob := uint64(p.hist[p.oldPos[i]])
		p.fIdx[i].update(bit, ob)
		p.fTag[i].update(bit, ob)
		p.fTag2[i].update(bit, ob)
		if p.oldPos[i]++; p.oldPos[i] == maxHistoryBits {
			p.oldPos[i] = 0
		}
	}
	for i, l := range p.scLens {
		if l > 0 {
			p.scFolds[i].update(bit, uint64(p.hist[p.scOldPos[i]]))
		}
		if p.scOldPos[i]++; p.scOldPos[i] == maxHistoryBits {
			p.scOldPos[i] = 0
		}
	}
	p.histPos++
	if p.histPos == maxHistoryBits {
		p.histPos = 0
	}
	if p.histLen < maxHistoryBits {
		p.histLen++
	}
}

func (p *Predictor) loopLookup(pc uint64) (int, *loopEntry) {
	idx := int(p.hasher.TableIndex(pc, 0, 6))
	tag := uint32(pc>>8) & 0x3fff
	e := &p.loops[idx]
	if e.age > 0 && e.tag == tag {
		return idx, e
	}
	return idx, nil
}

func (p *Predictor) loopUpdate(pc uint64, taken bool) {
	idx := int(p.hasher.TableIndex(pc, 0, 6))
	tag := uint32(pc>>8) & 0x3fff
	e := &p.loops[idx]
	if e.age == 0 || e.tag != tag {
		// Allocate on a not-taken outcome (potential loop exit).
		if !taken {
			if e.age == 0 {
				*e = loopEntry{tag: tag, age: 1}
			} else if e.age > 0 {
				e.age--
			}
		}
		return
	}
	if taken {
		e.currentIt++
		if e.currentIt == 0xffff {
			*e = loopEntry{}
		}
		return
	}
	// Loop exit observed.
	iters := e.currentIt + 1
	switch {
	case e.tripCount == 0:
		e.tripCount = iters
		e.confidence = 1
	case e.tripCount == iters:
		if e.confidence < 7 {
			e.confidence++
		}
		if e.age < 7 {
			e.age++
		}
	default:
		e.tripCount = iters
		e.confidence = 0
		if e.age > 0 {
			e.age--
		}
	}
	e.currentIt = 0
}

func updateCtr(c *int8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > -4 {
		*c--
	}
}

func ctrInit(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
