package tage

// Snapshot support for the warm-state checkpoint tier: a deterministic
// binary state round-trip (see sim.Snapshotter). The lookup stash is
// dead between records (Update always directly follows its Predict), so
// DecodeState resets it — every capture of the same logical state
// encodes to identical bytes.
//
// The format existing snapshot spills hold is kept: an entry is
// written as valid, a 32-bit tag, ctr and useful, and each history
// length's old-outcome position is written out although histPos
// determines it. DecodeState rejects whole any state the packed layout
// cannot hold or no replay can reach.

import "stbpu/internal/snap"

// EncodeState appends the predictor's mutable state to w.
func (p *Predictor) EncodeState(w *snap.Writer) {
	w.I8s(p.bimodal)
	w.Len(len(p.banks))
	n := 1 << p.cfg.IndexBits
	for b := range p.banks {
		w.Len(n)
		for _, e := range p.tagged[b*n : (b+1)*n] {
			w.Bool(e.vtag&validBit != 0)
			w.U32(uint32(e.vtag &^ validBit))
			w.I8(e.ctr)
			w.U8(e.useful)
		}
	}
	w.U8s(p.hist[:])
	w.Int(p.histPos)
	w.Int(p.histLen)
	for i := range p.banks {
		b := &p.banks[i]
		w.U64(b.idx.val)
		w.U64(b.tag.val)
		w.U64(b.tag2.val)
	}
	w.Len(len(p.banks))
	for i := range p.banks {
		w.I32(int32(p.oldPos(p.banks[i].len)))
	}
	w.Len(len(p.scLens))
	for _, l := range p.scLens {
		w.I32(int32(p.oldPos(l)))
	}
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
// the same configuration, resetting the lookup stash. It latches an
// error on r, rejecting the state whole, for a geometry mismatch, a tag
// wider than the 15-bit entry field, an invalid entry that holds a
// nonzero tag, counter or usefulness, a history position outside the
// ring, or a recorded old-outcome position that differs from the one
// derived from the history position.
func (p *Predictor) DecodeState(r *snap.Reader) {
	r.I8sInto(p.bimodal)
	r.LenExact(len(p.banks))
	n := 1 << p.cfg.IndexBits
	for b := range p.banks {
		r.LenExact(n)
		bank := p.tagged[b*n : (b+1)*n]
		for i := range bank {
			valid, tag, ctr, useful := r.Bool(), r.U32(), r.I8(), r.U8()
			switch {
			case tag >= validBit:
				r.Fail("tage: bank %d entry %d: tag %#x is wider than the %d-bit tag field", b, i, tag, maxTagBits)
			case !valid && (tag != 0 || ctr != 0 || useful != 0):
				r.Fail("tage: bank %d entry %d: invalid entry holds tag %#x, ctr %d, useful %d", b, i, tag, ctr, useful)
			}
			e := entry{vtag: uint16(tag), ctr: ctr, useful: useful}
			if valid {
				e.vtag |= validBit
			}
			bank[i] = e
		}
	}
	r.U8sInto(p.hist[:])
	p.histPos = r.Int()
	p.histLen = r.Int()
	if p.histPos < 0 || p.histPos >= maxHistoryBits || p.histLen < 0 || p.histLen > maxHistoryBits {
		r.Fail("tage: history position %d, length %d outside the %d-outcome ring", p.histPos, p.histLen, maxHistoryBits)
		p.histPos, p.histLen = 0, 0
	}
	for i := range p.banks {
		b := &p.banks[i]
		b.idx.val = r.U64()
		b.tag.val = r.U64()
		b.tag2.val = r.U64()
	}
	r.LenExact(len(p.banks))
	for i := range p.banks {
		p.checkOldPos(r, "bank", i, p.banks[i].len)
	}
	r.LenExact(len(p.scLens))
	for i, l := range p.scLens {
		p.checkOldPos(r, "SC table", i, l)
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
	p.refreshFolds()
	p.last = lookup{tags: p.last.tags, idxs: p.last.idxs, scIdxs: p.last.scIdxs}
}

// checkOldPos reads one recorded old-outcome position and latches an
// error on r when it is not the one a length-l history derives from
// histPos: replay always keeps the two equal, so a different value is
// corruption.
func (p *Predictor) checkOldPos(r *snap.Reader, what string, i, l int) {
	if got, want := r.I32(), p.oldPos(l); r.Err() == nil && int(got) != want {
		r.Fail("tage: %s %d: recorded history position %d, derived %d", what, i, got, want)
	}
}
