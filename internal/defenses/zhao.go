package defenses

import (
	"stbpu/internal/bpu"
	"stbpu/internal/rng"
	"stbpu/internal/trace"
)

// Zhao models the lightweight isolation mechanism of Zhao et al. (DAC
// 2021): branch indexes and stored contents are XORed with thread-private
// random numbers, and those numbers are re-generated on every context and
// mode switch.
//
// Two properties distinguish it from STBPU, and both are demonstrated by
// the tests:
//
//  1. Because the random numbers are discarded at each switch, the incoming
//     process can never reach its previously accumulated history — the
//     retention benefit of per-entity tokens is lost, and accuracy on
//     switch-heavy workloads degrades toward the flushing models.
//  2. Within one process between switches the masking is a *constant* XOR,
//     so collisions between two branches in the same address space are
//     preserved exactly (XOR masking is linear: H(a⊕m)=H(a)⊕H(m) for the
//     folded legacy hash). Same-address-space transient-execution attacks
//     (§III, transient trojans) therefore still work, which is the
//     paper's §VIII criticism.
type Zhao struct {
	unit *bpu.Unit
	mask *zhaoMask
	sw   switchDetector
	rand *rng.Rand

	// Regens counts mask re-generations (context/mode switches).
	Regens uint64
}

// zhaoMask is the thread-private random state applied as XOR pre-masking
// of every index computation and XOR encryption of stored contents. It
// deliberately reuses the *legacy* truncated fold underneath — Zhao et
// al. add masking on top of conventional indexing rather than replacing it
// with wide keyed functions, which is what keeps the scheme linear.
type zhaoMask struct {
	bpu.LegacyMapper
	idxMask     uint64
	contentMask uint32
}

var _ bpu.Mapper = (*zhaoMask)(nil)

// BTBIndex implements bpu.Mapper with pre-masked legacy indexing.
func (m *zhaoMask) BTBIndex(pc uint64) (set, tag, offs uint32) {
	return m.LegacyMapper.BTBIndex(pc ^ m.idxMask)
}

// BTBTagBHB implements bpu.Mapper.
func (m *zhaoMask) BTBTagBHB(bhb uint64) uint32 {
	return m.LegacyMapper.BTBTagBHB(bhb ^ m.idxMask)
}

// PHT1 implements bpu.Mapper.
func (m *zhaoMask) PHT1(pc uint64) uint32 {
	return m.LegacyMapper.PHT1(pc ^ m.idxMask)
}

// PHT2 implements bpu.Mapper.
func (m *zhaoMask) PHT2(pc uint64, ghr uint64) uint32 {
	return m.LegacyMapper.PHT2(pc^m.idxMask, ghr)
}

// EncryptTarget implements bpu.Mapper.
func (m *zhaoMask) EncryptTarget(t uint32) uint32 { return t ^ m.contentMask }

// DecryptTarget implements bpu.Mapper.
func (m *zhaoMask) DecryptTarget(t uint32) uint32 { return t ^ m.contentMask }

// NewZhao builds a Zhao-DAC21-protected baseline BPU.
func NewZhao(opt Options) *Zhao {
	opt = opt.withDefaults()
	z := &Zhao{
		mask: &zhaoMask{},
		rand: rng.New(opt.Seed),
	}
	z.unit = bpu.NewUnit(bpu.UnitConfig{Mapper: z.mask})
	z.regen()
	return z
}

// Name implements sim.Model.
func (z *Zhao) Name() string { return KindZhao.String() }

// Unit exposes the underlying BPU for attack drivers.
func (z *Zhao) Unit() *bpu.Unit { return z.unit }

// regen draws fresh thread-private random numbers.
func (z *Zhao) regen() {
	z.mask.idxMask = z.rand.Uint64() & trace.VAMask
	z.mask.contentMask = z.rand.Uint32()
	z.Regens++
}

// Step implements sim.Model.
func (z *Zhao) Step(rec trace.Record) (bpu.Prediction, bpu.Events) {
	if _, switched := z.sw.observe(rec); switched {
		z.regen()
	}
	pred := z.unit.Predict(rec.PC, rec.Kind)
	return pred, z.unit.Update(rec, pred)
}
