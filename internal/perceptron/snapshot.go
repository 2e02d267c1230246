package perceptron

// Snapshot support for the warm-state checkpoint tier (sim.Snapshotter):
// a deterministic binary state round-trip. The lookup stash is dead
// between records, so decoded snapshots reset it to keep encodings
// canonical.

import "stbpu/internal/snap"

// EncodeState appends the predictor's mutable state to w.
func (p *Predictor) EncodeState(w *snap.Writer) {
	w.Len(len(p.weights))
	for i := range p.weights {
		w.I16s(p.weights[i])
	}
	w.U64(p.hist)
}

// DecodeState restores state encoded by EncodeState onto a predictor of
// the same configuration, resetting the lookup stash.
func (p *Predictor) DecodeState(r *snap.Reader) {
	r.LenExact(len(p.weights))
	for i := range p.weights {
		r.I16sInto(p.weights[i])
	}
	p.hist = r.U64()
	p.lastPC, p.lastIdx, p.lastSum = 0, 0, 0
}
