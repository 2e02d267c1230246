package ittage

// Snapshot support for the warm-state checkpoint tier (sim.Snapshotter):
// a deterministic binary state round-trip. The lookup stash
// (lastPC/lastProvider/lastIdx/lastTag/lastStored) is dead between
// records — UpdateTarget always directly follows its PredictTarget — so
// decoded snapshots reset it to a canonical value.

import "stbpu/internal/snap"

// EncodeState appends the predictor's mutable state to w.
func (p *Predictor) EncodeState(w *snap.Writer) {
	w.Len(len(p.banks))
	for b := range p.banks {
		w.Len(len(p.banks[b]))
		for i := range p.banks[b] {
			e := &p.banks[b][i]
			w.Bool(e.valid)
			w.U32(e.tag)
			w.U32(e.target)
			w.U8(e.conf)
			w.U8(e.useful)
		}
	}
	w.U8s(p.hist)
	w.Int(p.histPos)
	w.U64s(p.folds)
	w.U64(p.Hits)
	w.U64(p.Misses)
	w.U64(p.Allocations)
}

// DecodeState restores state encoded by EncodeState onto a predictor of
// the same configuration, resetting the lookup stash. Geometry
// mismatches latch an error on r.
func (p *Predictor) DecodeState(r *snap.Reader) {
	r.LenExact(len(p.banks))
	for b := range p.banks {
		r.LenExact(len(p.banks[b]))
		for i := range p.banks[b] {
			e := &p.banks[b][i]
			e.valid = r.Bool()
			e.tag = r.U32()
			e.target = r.U32()
			e.conf = r.U8()
			e.useful = r.U8()
		}
	}
	r.U8sInto(p.hist)
	p.histPos = r.Int()
	if r.Err() == nil && (p.histPos < 0 || p.histPos >= len(p.hist)) {
		p.histPos = 0
	}
	r.U64sInto(p.folds)
	p.Hits = r.U64()
	p.Misses = r.U64()
	p.Allocations = r.U64()
	p.lastPC, p.lastProvider, p.lastStored = 0, -1, 0
}
