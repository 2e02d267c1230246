package defenses

import (
	"stbpu/internal/bpu"
	"stbpu/internal/rng"
	"stbpu/internal/trace"
)

// Exynos models the branch-target encryption shipped in the Samsung
// Exynos CPU (Grayson et al., ISCA 2020, as characterized in §VIII): the
// targets of *indirect* branches and returns stored in the BPU are XORed
// with a key produced by hashing process- and machine-specific inputs.
// The goal is narrow — stopping Spectre-v2-style target injection — and
// the design deliberately leaves the rest of the BPU untouched:
//
//   - direct-branch BTB entries are stored in the clear,
//   - the directional predictor keeps deterministic legacy indexing, so
//     PHT side channels (BranchScope, Table I PHT rows) are unaffected,
//   - the key is *derived*, never re-randomized, so there is no response
//     to an attacker grinding collisions (§VIII: "other forms of branch
//     collisions may still result in side channel leakage").
type Exynos struct {
	unit *bpu.Unit
	m    *exynosMapper
	sw   switchDetector

	machineSecret uint64
}

// exynosMapper keeps legacy indexing and applies target encryption only
// while the branch being processed is indirect (the Step method sets
// indirect per record, mirroring how the hardware scopes the XOR to the
// indirect-predictor path).
type exynosMapper struct {
	bpu.LegacyMapper
	key      uint32
	indirect bool
}

var _ bpu.Mapper = (*exynosMapper)(nil)

// EncryptTarget implements bpu.Mapper: XOR with the derived key on the
// indirect path only.
func (m *exynosMapper) EncryptTarget(t uint32) uint32 {
	if m.indirect {
		return t ^ m.key
	}
	return t
}

// DecryptTarget implements bpu.Mapper.
func (m *exynosMapper) DecryptTarget(t uint32) uint32 {
	if m.indirect {
		return t ^ m.key
	}
	return t
}

// NewExynos builds an Exynos-style protected baseline BPU.
func NewExynos(opt Options) *Exynos {
	opt = opt.withDefaults()
	e := &Exynos{
		m:             &exynosMapper{},
		machineSecret: rng.New(opt.Seed).Uint64(),
	}
	e.unit = bpu.NewUnit(bpu.UnitConfig{Mapper: e.m})
	return e
}

// Name implements sim.Model.
func (e *Exynos) Name() string { return KindExynos.String() }

// Unit exposes the underlying BPU for attack drivers.
func (e *Exynos) Unit() *bpu.Unit { return e.unit }

// deriveKey hashes the machine secret with the entity identity — the
// "number of process and machine-specific inputs" of §VIII. It is a pure
// function: the same process always derives the same key, which is
// exactly the property the comparison tests exploit (no re-randomization
// pressure against brute force).
func (e *Exynos) deriveKey(entity uint64) uint32 {
	s := e.machineSecret ^ entity
	return uint32(rng.SplitMix64(&s) >> 32)
}

// Step implements sim.Model.
func (e *Exynos) Step(rec trace.Record) (bpu.Prediction, bpu.Events) {
	e.sw.observe(rec)
	e.m.key = e.deriveKey(entityKey(rec))
	e.m.indirect = rec.Kind.IsIndirect()
	pred := e.unit.Predict(rec.PC, rec.Kind)
	return pred, e.unit.Update(rec, pred)
}
