package tage

// Snapshot support for the warm-state checkpoint tier: a deterministic
// binary state round-trip (see sim.Snapshotter). The lookup stash is
// dead between records (Update always directly follows its Predict), so
// DecodeState resets it — every capture of the same logical state
// encodes to identical bytes.

import "stbpu/internal/snap"

// EncodeState appends the predictor's mutable state to w.
func (p *Predictor) EncodeState(w *snap.Writer) {
	w.I8s(p.bimodal)
	w.Len(len(p.banks))
	for b := range p.banks {
		w.Len(len(p.banks[b]))
		for i := range p.banks[b] {
			e := &p.banks[b][i]
			w.Bool(e.valid)
			w.U32(e.tag)
			w.I8(e.ctr)
			w.U8(e.useful)
		}
	}
	w.U8s(p.hist[:])
	w.Int(p.histPos)
	w.Int(p.histLen)
	for i := range p.fIdx {
		w.U64(p.fIdx[i].val)
		w.U64(p.fTag[i].val)
		w.U64(p.fTag2[i].val)
	}
	w.I32s(p.oldPos)
	w.I32s(p.scOldPos)
	w.I8(p.useAltOnNA)
	w.Len(len(p.loops))
	for i := range p.loops {
		e := &p.loops[i]
		w.U32(e.tag)
		w.U16(e.tripCount)
		w.U16(e.currentIt)
		w.U8(e.confidence)
		w.U8(e.age)
	}
	w.Len(len(p.scTables))
	for i := range p.scTables {
		w.I8s(p.scTables[i])
	}
	for i := range p.scFolds {
		w.U64(p.scFolds[i].val)
	}
	w.U64(p.TageMispredicts)
}

// DecodeState restores state encoded by EncodeState onto a predictor of
// the same configuration, resetting the lookup stash. Geometry
// mismatches latch an error on r.
func (p *Predictor) DecodeState(r *snap.Reader) {
	r.I8sInto(p.bimodal)
	r.LenExact(len(p.banks))
	for b := range p.banks {
		r.LenExact(len(p.banks[b]))
		for i := range p.banks[b] {
			e := &p.banks[b][i]
			e.valid = r.Bool()
			e.tag = r.U32()
			e.ctr = r.I8()
			e.useful = r.U8()
		}
	}
	r.U8sInto(p.hist[:])
	p.histPos = r.Int()
	p.histLen = r.Int()
	if r.Err() == nil && (p.histPos < 0 || p.histPos >= maxHistoryBits || p.histLen < 0 || p.histLen > maxHistoryBits) {
		p.histPos, p.histLen = 0, 0
	}
	for i := range p.fIdx {
		p.fIdx[i].val = r.U64()
		p.fTag[i].val = r.U64()
		p.fTag2[i].val = r.U64()
	}
	r.I32sInto(p.oldPos)
	r.I32sInto(p.scOldPos)
	// Corrupt positions would index outside the ring; re-derive them
	// from histPos rather than panic (the disk tier falls back to
	// replay on a decode error, but a wild index must never crash).
	for _, pos := range append(append([]int32(nil), p.oldPos...), p.scOldPos...) {
		if pos < 0 || pos >= maxHistoryBits {
			p.resetOldPositions()
			break
		}
	}
	p.useAltOnNA = r.I8()
	r.LenExact(len(p.loops))
	for i := range p.loops {
		e := &p.loops[i]
		e.tag = r.U32()
		e.tripCount = r.U16()
		e.currentIt = r.U16()
		e.confidence = r.U8()
		e.age = r.U8()
	}
	r.LenExact(len(p.scTables))
	for i := range p.scTables {
		r.I8sInto(p.scTables[i])
	}
	for i := range p.scFolds {
		p.scFolds[i].val = r.U64()
	}
	p.TageMispredicts = r.U64()
	p.last = lookup{tags: p.last.tags, idxs: p.last.idxs, scIdxs: p.last.scIdxs}
}
