package defenses

import (
	"stbpu/internal/bpu"
	"stbpu/internal/remap"
	"stbpu/internal/rng"
	"stbpu/internal/trace"
)

// BSUP models two-level encryption (Lee, Ishii, Sunwoo, TACO 2020): the
// branch PC is encrypted before indexing any predictor structure (level
// one) and the stored entry contents are encrypted (level two). Keys are
// held per software context, restored on context switches, and retired
// after a fixed lifetime of retired branches, at which point the context
// gets a fresh key and its accumulated history becomes unreachable.
//
// Relative to STBPU: the re-key trigger is a *time* budget (branch count),
// not an *event* budget, so an attacker fast enough to finish inside one
// key epoch is not disturbed — there is no misprediction/eviction
// monitoring. And because the design assumes a single key register per
// physical core, two SMT threads cannot hold different keys; the SMT
// evaluation treats BSUP as sharing one key, which removes its
// cross-thread isolation exactly as §VIII notes ("unsuitable for SMT
// processors").
type BSUP struct {
	unit *bpu.Unit
	key  *bsupKey
	sw   switchDetector

	keys    map[uint64]bsupEpochKey
	rand    *rng.Rand
	life    uint64
	retired uint64

	// Rekeys counts lifetime-expiry re-keys; CtxRestores counts key
	// restores on context switches.
	Rekeys      uint64
	CtxRestores uint64

	// smtShared, when set, makes every entity resolve to one shared key:
	// the single-key-register limitation in SMT mode.
	smtShared bool
}

type bsupEpochKey struct {
	psi uint32
	phi uint32
	// bornAt is the retired-branch timestamp of key creation.
	bornAt uint64
}

// bsupKey adapts the active key to the bpu.Mapper interface through the
// keyed remap backend: level one (PC encryption before indexing) is the
// keyed remapping of every index/tag computation; level two is the stored
// target encryption.
type bsupKey struct {
	funcs remap.Funcs
	psi   uint32
	phi   uint32
}

var _ bpu.Mapper = (*bsupKey)(nil)

// BTBIndex implements bpu.Mapper.
func (k *bsupKey) BTBIndex(pc uint64) (set, tag, offs uint32) { return k.funcs.R1(k.psi, pc) }

// BTBTagBHB implements bpu.Mapper.
func (k *bsupKey) BTBTagBHB(bhb uint64) uint32 { return k.funcs.R2(k.psi, bhb) }

// PHT1 implements bpu.Mapper.
func (k *bsupKey) PHT1(pc uint64) uint32 { return k.funcs.R3(k.psi, pc) }

// PHT2 implements bpu.Mapper.
func (k *bsupKey) PHT2(pc uint64, ghr uint64) uint32 { return k.funcs.R4(k.psi, uint16(ghr), pc) }

// EncryptTarget implements bpu.Mapper (level-two encryption).
func (k *bsupKey) EncryptTarget(t uint32) uint32 { return t ^ k.phi }

// DecryptTarget implements bpu.Mapper.
func (k *bsupKey) DecryptTarget(t uint32) uint32 { return t ^ k.phi }

// NewBSUP builds a BSUP-protected baseline BPU.
func NewBSUP(opt Options) *BSUP {
	opt = opt.withDefaults()
	key := &bsupKey{funcs: remap.NewMixer()}
	b := &BSUP{
		unit: bpu.NewUnit(bpu.UnitConfig{Mapper: key}),
		key:  key,
		keys: make(map[uint64]bsupEpochKey),
		rand: rng.New(opt.Seed),
		life: opt.KeyLifetime,
	}
	b.install(b.freshKey())
	return b
}

// Name implements sim.Model.
func (b *BSUP) Name() string { return KindBSUP.String() }

// Unit exposes the underlying BPU for attack drivers.
func (b *BSUP) Unit() *bpu.Unit { return b.unit }

// SetSMTShared switches the model into single-key-register mode: all
// entities share one key, as a physical core running two hardware threads
// would be forced to.
func (b *BSUP) SetSMTShared(on bool) { b.smtShared = on }

func (b *BSUP) freshKey() bsupEpochKey {
	return bsupEpochKey{psi: b.rand.Uint32(), phi: b.rand.Uint32(), bornAt: b.retired}
}

func (b *BSUP) install(k bsupEpochKey) {
	b.key.psi, b.key.phi = k.psi, k.phi
}

func (b *BSUP) keyFor(entity uint64) bsupEpochKey {
	if b.smtShared {
		entity = 0
	}
	k, ok := b.keys[entity]
	if !ok || b.retired-k.bornAt >= b.life {
		if ok {
			b.Rekeys++
		}
		k = b.freshKey()
		b.keys[entity] = k
	}
	return k
}

// Step implements sim.Model.
func (b *BSUP) Step(rec trace.Record) (bpu.Prediction, bpu.Events) {
	entity := entityKey(rec)
	if b.smtShared {
		entity = 0
	}
	if _, switched := b.sw.observe(rec); switched {
		b.install(b.keyFor(entity))
		b.CtxRestores++
	} else {
		// Lifetime expiry re-keys the live context too.
		if k, ok := b.keys[entity]; ok && b.retired-k.bornAt >= b.life {
			b.install(b.keyFor(entity))
		} else if !ok {
			b.install(b.keyFor(entity))
		}
	}
	b.retired++
	pred := b.unit.Predict(rec.PC, rec.Kind)
	return pred, b.unit.Update(rec, pred)
}
