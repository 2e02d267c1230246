package core

// Snapshot support for the warm-state checkpoint tier (sim.Snapshotter):
// the one unit codec every model's state goes through (EncodeUnit and
// DecodeUnit), and the ST model's own EncodeState/DecodeState on top
// of it.

import (
	"fmt"

	"stbpu/internal/bpu"
	"stbpu/internal/ittage"
	"stbpu/internal/perceptron"
	"stbpu/internal/snap"
	"stbpu/internal/tage"
)

// EncodeUnit appends a unit's complete mutable state to w: its own
// structures (BTB, RSB, history), its direction predictor, and a marker
// followed, when the unit has one, by its ITTAGE indirect predictor.
// The switch over concrete types is deliberate: dispatching through an
// interface method would make w escape to the heap.
func EncodeUnit(u *bpu.Unit, w *snap.Writer) {
	u.EncodeState(w)
	switch d := u.Direction().(type) {
	case *bpu.SKLCond:
		d.EncodeState(w)
	case *tage.Predictor:
		d.EncodeState(w)
	case *perceptron.Predictor:
		d.EncodeState(w)
	default:
		panic(fmt.Sprintf("core: cannot encode direction predictor %T", d))
	}
	it, hasIT := u.Indirect().(*ittage.Predictor)
	w.Bool(hasIT)
	if hasIT {
		it.EncodeState(w)
	}
}

// DecodeUnit restores state encoded by EncodeUnit onto a unit built from
// the same configuration. Structural mismatches latch an error on r.
func DecodeUnit(u *bpu.Unit, r *snap.Reader) {
	u.DecodeState(r)
	switch d := u.Direction().(type) {
	case *bpu.SKLCond:
		d.DecodeState(r)
	case *tage.Predictor:
		d.DecodeState(r)
	case *perceptron.Predictor:
		d.DecodeState(r)
	default:
		r.Fail("core: cannot decode direction predictor %T", d)
	}
	it, hasIT := u.Indirect().(*ittage.Predictor)
	if r.Bool() != hasIT {
		r.Fail("core: indirect-predictor marker does not match model config")
		return
	}
	if hasIT {
		it.DecodeState(r)
	}
}

// EncodeState implements sim.Snapshotter: the live token (ψ/φ), the
// unit, the token manager, and the entity-switch registers.
func (m *Model) EncodeState() []byte {
	w := snap.NewWriter(1 << 16)
	w.U32(m.key.psi)
	w.U32(m.key.phi)
	EncodeUnit(m.unit, w)
	m.mgr.EncodeState(w)
	w.U64(m.curKey)
	w.Bool(m.haveKey)
	w.U64(m.lastTageMisp)
	return w.Bytes()
}

// DecodeState implements sim.Snapshotter: it restores state captured by
// EncodeState on a model built from the same ModelConfig. On error the
// model is in an unspecified state the caller must discard.
func (m *Model) DecodeState(data []byte) error {
	r := snap.NewReader(data)
	m.key.psi = r.U32()
	m.key.phi = r.U32()
	DecodeUnit(m.unit, r)
	m.mgr.DecodeState(r)
	m.curKey = r.U64()
	m.haveKey = r.Bool()
	m.lastTageMisp = r.U64()
	return r.Done()
}
