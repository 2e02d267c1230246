// Package tage implements the TAGE-SC-L conditional branch predictor
// (Seznec, CBP 2016) in the two configurations the paper evaluates in gem5
// (§VII-B2): an 8KB and a 64KB variant. The implementation covers the
// TAgged GEometric base predictor, the loop predictor (L), and a
// GEHL-style statistical corrector (SC).
//
// Index and tag computations flow through a Hasher so the STBPU wrapper
// (internal/core) can substitute the keyed Rt remapping function without
// touching prediction logic — the property STBPU relies on to stay
// predictor-agnostic (§II-A). A Hasher must be a pure function of its
// arguments and its key: Update reuses the indices and tags its Predict
// computed, so a key change between the two would train entries the
// lookup never read. BankIndexTags fills every tagged bank's index and
// tag in one call per lookup; Predict masks the results to the bank
// geometry (IndexBits, TagBits), so a wider result aliases rather than
// escaping its bank. TableIndex serves the bimodal table, the SC tables
// and the loop predictor.
//
// State layout. The tagged banks are one flat slice of 4-byte entries
// (a uint16 holding the valid bit over a tag of at most 15 bits, an int8
// counter, a uint8 usefulness), bank b at offset b<<IndexBits; New
// panics on TagBits > 15. The global history is a 1024-outcome ring
// written at histPos. A history of length l folds out the outcome at
// ring index (histPos − l) & 1023, derived on every push: no
// per-length position is stored. Each bank keeps its three folded
// registers (index width, tag width, tag width − 1) in one struct,
// and after each push Predict's hasher input per bank, a Fold, is
// refreshed from them. The snapshot codec (snapshot.go) writes the
// derived positions out, keeping the format existing spills hold, and
// the decoder rejects a recorded position that differs from the
// derived one.
package tage

import (
	"fmt"

	"stbpu/internal/bpu"
)

// Fold is one tagged bank's folded global history as the Hasher sees
// it: Idx is folded to the index width, Tag combines the tag-width and
// tag-width − 1 registers (tag ^ tag2<<1).
type Fold struct{ Idx, Tag uint64 }

// Hasher computes table indices and tags. LegacyHasher reproduces the
// standard TAGE folded-history hash; the ST wrapper substitutes keyed
// remapping. See the package comment for the contract.
type Hasher interface {
	// BankIndexTags maps pc and each bank's folds[b] to idx[b] and
	// tag[b], of indexBits and tagBits width; the three slices have one
	// element per tagged bank.
	BankIndexTags(pc uint64, folds []Fold, indexBits, tagBits uint, idx, tag []uint32)
	// TableIndex maps pc (optionally mixed with folded history) to an
	// index for the untagged side structures (bimodal, SC, loop).
	TableIndex(pc uint64, fold uint64, bits uint) uint32
}

// LegacyHasher is the unprotected deterministic hash of standard TAGE.
type LegacyHasher struct{}

var _ Hasher = LegacyHasher{}

// BankIndexTags implements Hasher.
func (LegacyHasher) BankIndexTags(pc uint64, folds []Fold, indexBits, tagBits uint, idx, tag []uint32) {
	idx, tag = idx[:len(folds)], tag[:len(folds)]
	imask, tmask := uint32(1)<<(indexBits&31)-1, uint32(1)<<(tagBits&31)-1
	for b, f := range folds {
		h := pc ^ pc>>((indexBits-uint(b)&7)&63) ^ f.Idx
		idx[b] = uint32(h) & imask
		tag[b] = uint32(pc^f.Tag^f.Tag<<1) & tmask
	}
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
	// 8KB configuration, 13/12 for 64KB). TagBits is at most 15.
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

// entry is one tagged-bank slot in 4 bytes: the valid bit (validBit)
// over the tag, a 3-bit signed counter, and a 2-bit usefulness.
type entry struct {
	vtag   uint16
	ctr    int8 // -4..3, taken when >= 0
	useful uint8
}

// maxTagBits is the widest tag entry.vtag holds.
const maxTagBits = 15

// validBit marks a claimed entry in entry.vtag, above its tag bits.
const validBit = 1 << maxTagBits

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
// Both shift amounts are below 64 by construction; masking them says so
// to the compiler, which then emits one shift for each.
func (f *folded) update(newBit, oldBit uint64) {
	v := f.val<<1 | newBit
	v ^= oldBit << (f.outShift & 63)
	v ^= v >> (f.compLen & 63)
	f.val = v & f.mask
}

// bankHist is one tagged bank's history: its length and its three
// folded registers.
type bankHist struct {
	len            int
	idx, tag, tag2 folded
}

// maxHistoryBits bounds the outcome ring buffer; it is a power of two,
// so a ring index wraps by masking.
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

	bimodal []int8  // 2-bit counters as -2..1, taken when >= 0
	tagged  []entry // bank b's slots at [b<<IndexBits, (b+1)<<IndexBits)

	// Global outcome history ring plus folded registers per bank, and
	// each bank's hasher input (refreshed on every push).
	hist    [maxHistoryBits]uint8
	histPos int
	histLen int
	banks   []bankHist
	folds   []Fold

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
	tags      []uint32 // per bank, masked to TagBits
	idxs      []uint32 // per bank, the slot in Predictor.tagged
	tagePred  bool
	altPred   bool
	finalPred bool
	loopIdx   int // the loop-table slot, computed whenever UseLoop is set
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
	if cfg.TagBits > maxTagBits {
		panic(fmt.Sprintf("tage: %d tag bits exceed the %d-bit entry tag field", cfg.TagBits, maxTagBits))
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
	p.tagged = make([]entry, len(cfg.HistLens)<<cfg.IndexBits)
	for _, l := range cfg.HistLens {
		if l >= maxHistoryBits {
			panic(fmt.Sprintf("tage: history length %d exceeds %d", l, maxHistoryBits))
		}
		p.banks = append(p.banks, bankHist{
			len:  l,
			idx:  newFolded(uint(l), cfg.IndexBits),
			tag:  newFolded(uint(l), cfg.TagBits),
			tag2: newFolded(uint(l), cfg.TagBits-1),
		})
	}
	p.folds = make([]Fold, len(cfg.HistLens))
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

	l.bimIdx = p.hasher.TableIndex(pc, 0, p.cfg.BimodalBits)
	bimPred := p.bimodal[l.bimIdx] >= 0

	// Tagged lookups, longest history wins. One hasher call computes
	// every bank's index/tag (Update's allocation needs them all); the
	// pass turns each index into its slot in the flat table and picks
	// the provider and alternate as it goes.
	ib := p.cfg.IndexBits & 31
	imask, tmask := uint32(1)<<ib-1, uint32(1)<<(p.cfg.TagBits&31)-1
	idxs, tags := l.idxs[:len(p.folds)], l.tags[:len(p.folds)]
	p.hasher.BankIndexTags(pc, p.folds, p.cfg.IndexBits, p.cfg.TagBits, idxs, tags)
	for b := len(idxs) - 1; b >= 0; b-- {
		slot := uint32(b)<<ib | idxs[b]&imask
		tag := tags[b] & tmask
		idxs[b], tags[b] = slot, tag
		if p.tagged[slot].vtag == uint16(tag)|validBit {
			if l.provider < 0 {
				l.provider = b
				l.provIdx = slot
			} else if l.altBank < 0 {
				l.altBank = b
				l.altIdx = slot
			}
		}
	}

	if l.altBank >= 0 {
		l.altPred = p.tagged[l.altIdx].ctr >= 0
	} else {
		l.altPred = bimPred
	}
	if l.provider >= 0 {
		e := &p.tagged[l.provIdx]
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
		l.loopIdx = int(p.hasher.TableIndex(pc, 0, 6))
		if e := p.loopHit(l.loopIdx, pc); e != nil && e.confidence >= 3 && e.tripCount > 0 {
			l.finalPred = e.currentIt+1 != e.tripCount
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

	// Loop predictor training, on the slot Predict looked up.
	if p.cfg.UseLoop {
		p.loopUpdate(l.loopIdx, pc, taken)
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
		e := &p.tagged[l.provIdx]
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
		e := &p.tagged[l.provIdx]
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
			e := &p.tagged[l.idxs[b]]
			if e.vtag&validBit == 0 || e.useful == 0 {
				*e = entry{vtag: uint16(l.tags[b]) | validBit, ctr: ctrInit(taken)}
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay usefulness so future allocations succeed.
			for b := l.provider + 1; b < len(p.banks); b++ {
				e := &p.tagged[l.idxs[b]]
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
	clear(p.tagged)
	for i := range p.banks {
		b := &p.banks[i]
		b.idx.val, b.tag.val, b.tag2.val = 0, 0, 0
	}
	clear(p.folds)
	for i := range p.scFolds {
		p.scFolds[i].val = 0
	}
	for i := range p.scTables {
		clear(p.scTables[i])
	}
	clear(p.loops)
	p.hist = [maxHistoryBits]uint8{}
	p.histPos, p.histLen = 0, 0
	p.useAltOnNA = 0
	p.last = lookup{
		tags:   p.last.tags,
		idxs:   p.last.idxs,
		scIdxs: p.last.scIdxs,
	}
}

// oldPos is the ring index of the outcome l pushes back: the one a
// length-l history folds out on the next push.
func (p *Predictor) oldPos(l int) int {
	return (p.histPos - l) & (maxHistoryBits - 1)
}

// pushHistory shifts an outcome into the ring and all folded registers,
// then refreshes each bank's hasher input.
func (p *Predictor) pushHistory(taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	pos := p.histPos & (maxHistoryBits - 1)
	p.hist[pos] = uint8(bit)
	folds := p.folds[:len(p.banks)]
	for i := range p.banks {
		b := &p.banks[i]
		ob := uint64(p.hist[(pos-b.len)&(maxHistoryBits-1)])
		b.idx.update(bit, ob)
		b.tag.update(bit, ob)
		b.tag2.update(bit, ob)
		folds[i] = Fold{Idx: b.idx.val, Tag: b.tag.val ^ b.tag2.val<<1}
	}
	for i, l := range p.scLens {
		if l > 0 {
			p.scFolds[i].update(bit, uint64(p.hist[(pos-l)&(maxHistoryBits-1)]))
		}
	}
	p.histPos = (pos + 1) & (maxHistoryBits - 1)
	if p.histLen < maxHistoryBits {
		p.histLen++
	}
}

// refreshFolds recomputes every bank's hasher input from its folded
// registers (after a decode; pushHistory keeps them current).
func (p *Predictor) refreshFolds() {
	for i := range p.banks {
		b := &p.banks[i]
		p.folds[i] = Fold{Idx: b.idx.val, Tag: b.tag.val ^ b.tag2.val<<1}
	}
}

// loopHit returns the loop entry at idx when it tracks pc, else nil.
func (p *Predictor) loopHit(idx int, pc uint64) *loopEntry {
	e := &p.loops[idx]
	if e.age > 0 && e.tag == uint32(pc>>8)&0x3fff {
		return e
	}
	return nil
}

func (p *Predictor) loopUpdate(idx int, pc uint64, taken bool) {
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
