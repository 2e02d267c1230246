package perceptron

// Snapshot support for the warm-state checkpoint tier (sim.Snapshotter):
// a deterministic binary state round-trip. The lookup stash is dead
// between records, so decoded snapshots reset it to keep encodings
// canonical. Each weight is written as an int16, one length-prefixed
// row at a time: the format existing snapshot spills hold.

import "stbpu/internal/snap"

// EncodeState appends the predictor's mutable state to w.
func (p *Predictor) EncodeState(w *snap.Writer) {
	rows := len(p.weights) / p.stride
	w.Len(rows)
	for i := 0; i < rows; i++ {
		w.Len(p.stride)
		for _, v := range p.row(uint32(i)) {
			w.I16(int16(v))
		}
	}
	w.U64(p.hist)
}

// DecodeState restores state encoded by EncodeState onto a predictor of
// the same configuration, resetting the lookup stash. A geometry
// mismatch or a weight outside [-128, 127], which no training reaches,
// latches an error on r.
func (p *Predictor) DecodeState(r *snap.Reader) {
	rows := len(p.weights) / p.stride
	r.LenExact(rows)
	for i := 0; i < rows; i++ {
		r.LenExact(p.stride)
		row := p.row(uint32(i))
		for j := range row {
			v := r.I16()
			if v < -weightMax-1 || v > weightMax {
				r.Fail("perceptron: row %d weight %d is %d, outside [%d, %d]", i, j, v, -weightMax-1, weightMax)
			}
			row[j] = int8(v)
		}
	}
	p.hist = r.U64()
	p.lastPC, p.lastIdx, p.lastSum = 0, 0, 0
}
