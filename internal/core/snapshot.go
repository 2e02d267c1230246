package core

// Snapshot support for the warm-state checkpoint tier (sim.Snapshotter):
// a Model can be deep-forked and round-tripped through the deterministic
// snap codec. The fork rebuilds the shared keyState and re-points every
// keyed component (BTB mapper, TAGE/ITTAGE hashers, perceptron index) at
// the new instance, so the fork and the original never alias mutable
// state — token re-randomization in one cannot re-key the other.

import (
	"stbpu/internal/bpu"
	"stbpu/internal/ittage"
	"stbpu/internal/snap"
)

// Fork returns a deep copy of the model with independent state: forked
// token manager (including PRNG stream position), forked predictor
// structures, and a fresh keyState carrying the live ψ/φ.
func (m *Model) Fork() *Model {
	nk := &keyState{funcs: m.key.funcs, psi: m.key.psi, phi: m.key.phi}
	nm := &Model{
		name:         m.name,
		key:          nk,
		mgr:          m.mgr.Clone(),
		dir:          m.dir,
		sharedTokens: m.sharedTokens,
		lastTageMisp: m.lastTageMisp,
		curKey:       m.curKey,
		haveKey:      m.haveKey,
	}
	var dir bpu.DirectionPredictor
	switch {
	case m.tagePred != nil:
		nm.tagePred = m.tagePred.CloneWith(nk)
		dir = nm.tagePred
	case m.percPred != nil:
		nm.percPred = m.percPred.CloneWith(nk.PerceptronIndex)
		dir = nm.percPred
	default:
		dir = m.unit.Direction().(*bpu.SKLCond).CloneWith(nk)
	}
	var ind bpu.IndirectPredictor
	if it, ok := m.unit.Indirect().(*ittage.Predictor); ok {
		ind = it.CloneWith(nk)
	}
	nm.unit = m.unit.Clone(nk, dir, ind)
	return nm
}

// EncodeState appends the model's complete mutable state to w: the live
// token (ψ/φ), the BPU structures, the direction and indirect
// predictors, the token manager, and the entity-switch registers.
func (m *Model) EncodeState(w *snap.Writer) {
	w.U32(m.key.psi)
	w.U32(m.key.phi)
	m.unit.EncodeState(w)
	switch {
	case m.tagePred != nil:
		m.tagePred.EncodeState(w)
	case m.percPred != nil:
		m.percPred.EncodeState(w)
	default:
		m.unit.Direction().(*bpu.SKLCond).EncodeState(w)
	}
	it, hasIT := m.unit.Indirect().(*ittage.Predictor)
	w.Bool(hasIT)
	if hasIT {
		it.EncodeState(w)
	}
	m.mgr.EncodeState(w)
	w.U64(m.curKey)
	w.Bool(m.haveKey)
	w.U64(m.lastTageMisp)
}

// DecodeState restores state encoded by EncodeState onto a model built
// from the same ModelConfig. Structural mismatches latch an error on r
// and leave the model in an unspecified state the caller must discard.
func (m *Model) DecodeState(r *snap.Reader) {
	m.key.psi = r.U32()
	m.key.phi = r.U32()
	m.unit.DecodeState(r)
	switch {
	case m.tagePred != nil:
		m.tagePred.DecodeState(r)
	case m.percPred != nil:
		m.percPred.DecodeState(r)
	default:
		m.unit.Direction().(*bpu.SKLCond).DecodeState(r)
	}
	it, hasIT := m.unit.Indirect().(*ittage.Predictor)
	if r.Bool() != hasIT {
		r.Fail("core: indirect-predictor marker does not match model config")
		return
	}
	if hasIT {
		it.DecodeState(r)
	}
	m.mgr.DecodeState(r)
	m.curKey = r.U64()
	m.haveKey = r.Bool()
	m.lastTageMisp = r.U64()
}
