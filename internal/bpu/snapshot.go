package bpu

// Snapshot support for the warm-state checkpoint tier (internal/snapstore,
// sim.Snapshotter): every Unit component round-trips through the
// deterministic snap codec. Lookup stash fields (SKLCond's last* indices)
// are dead between records — Update always directly follows its
// Predict — so decoded snapshots reset them to zero, giving every capture
// of the same logical state an identical canonical encoding.

import "stbpu/internal/snap"

// EncodeState appends the BTB's mutable state to w.
func (b *BTB) EncodeState(w *snap.Writer) {
	w.Len(len(b.entries))
	for i := range b.entries {
		e := &b.entries[i]
		w.Bool(e.valid)
		w.U32(e.tag)
		w.U32(e.offs)
		w.U32(e.target)
		w.U64(e.fullPC)
		w.U32(e.lru)
	}
	w.U32(b.clock)
	w.U64(b.Evictions)
}

// DecodeState restores state encoded by EncodeState; the geometry must
// match the live table.
func (b *BTB) DecodeState(r *snap.Reader) {
	r.LenExact(len(b.entries))
	for i := range b.entries {
		e := &b.entries[i]
		e.valid = r.Bool()
		e.tag = r.U32()
		e.offs = r.U32()
		e.target = r.U32()
		e.fullPC = r.U64()
		e.lru = r.U32()
	}
	b.clock = r.U32()
	b.Evictions = r.U64()
}

// EncodeState appends the RSB's mutable state to w.
func (r *RSB) EncodeState(w *snap.Writer) {
	w.U32s(r.entries)
	w.Int(r.top)
	w.Int(r.depth)
	w.U64(r.Underflows)
}

// DecodeState restores state encoded by EncodeState.
func (r *RSB) DecodeState(sr *snap.Reader) {
	sr.U32sInto(r.entries)
	r.top = sr.Int()
	r.depth = sr.Int()
	if sr.Err() == nil && (r.top < 0 || r.top >= len(r.entries) || r.depth < 0 || r.depth > len(r.entries)) {
		r.top, r.depth = 0, 0
	}
	r.Underflows = sr.U64()
}

// EncodeState appends the history registers to w.
func (h *History) EncodeState(w *snap.Writer) {
	w.U64(h.GHR)
	w.U64(h.BHB)
}

// DecodeState restores the history registers.
func (h *History) DecodeState(r *snap.Reader) {
	h.GHR = r.U64()
	h.BHB = r.U64()
}

// encodeTo appends the counter table to w.
func (p *PHT) encodeTo(w *snap.Writer) { w.U8s(p.counters) }

// decodeFrom restores the counter table; sizes must match.
func (p *PHT) decodeFrom(r *snap.Reader) { r.U8sInto(p.counters) }

// EncodeState appends the predictor's mutable state to w.
func (s *SKLCond) EncodeState(w *snap.Writer) {
	s.pht.encodeTo(w)
	s.chooser.encodeTo(w)
	s.hist.EncodeState(w)
}

// DecodeState restores state encoded by EncodeState, resetting the
// lookup stash.
func (s *SKLCond) DecodeState(r *snap.Reader) {
	s.pht.decodeFrom(r)
	s.chooser.decodeFrom(r)
	s.hist.DecodeState(r)
	s.lastIdx1, s.lastIdx2, s.lastChoice = 0, 0, 0
}

// EncodeState appends the Unit's own mutable state (BTB, RSB, history)
// to w. The direction and indirect predictors encode themselves;
// core.EncodeUnit writes the whole unit.
func (u *Unit) EncodeState(w *snap.Writer) {
	u.btb.EncodeState(w)
	u.rsb.EncodeState(w)
	u.hist.EncodeState(w)
}

// DecodeState restores state encoded by EncodeState.
func (u *Unit) DecodeState(r *snap.Reader) {
	u.btb.DecodeState(r)
	u.rsb.DecodeState(r)
	u.hist.DecodeState(r)
}
