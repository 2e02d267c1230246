package token

// Snapshot support for the warm-state checkpoint tier (sim.Snapshotter):
// a Manager round-trips through the deterministic snap codec. Entities
// are written in sorted key order with an entity-id indirection, so
// aliased records (ShareToken) survive the round-trip and identical
// logical states always encode to identical bytes regardless of map
// iteration order.

import (
	"sort"

	"stbpu/internal/snap"
)

// EncodeState appends the manager's mutable state to w. Thresholds are
// configuration, not state, and are not encoded — the decoder's manager
// must be constructed with the same thresholds.
func (m *Manager) EncodeState(w *snap.Writer) {
	st := m.r.State()
	for _, v := range st {
		w.U64(v)
	}
	w.U64(m.stats.RerandMisp)
	w.U64(m.stats.RerandEvict)
	w.U64(m.stats.RerandTage)
	w.U64(m.stats.TokensIssued)

	keys := make([]uint64, 0, len(m.entities))
	for k := range m.entities {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// First appearance in key order assigns each distinct entity record
	// an id; later keys aliasing the same record reference that id.
	ids := make(map[*entity]int, len(keys))
	var records []*entity
	w.Len(len(keys))
	for _, k := range keys {
		e := m.entities[k]
		id, ok := ids[e]
		if !ok {
			id = len(records)
			ids[e] = id
			records = append(records, e)
		}
		w.U64(k)
		w.Int(id)
	}
	w.Len(len(records))
	for _, e := range records {
		w.U32(e.st.Psi)
		w.U32(e.st.Phi)
		w.U64(e.ctr.misp)
		w.U64(e.ctr.evict)
		w.U64(e.ctr.tage)
	}
}

// DecodeState restores state encoded by EncodeState, replacing the
// manager's entities wholesale.
func (m *Manager) DecodeState(r *snap.Reader) {
	var st [4]uint64
	for i := range st {
		st[i] = r.U64()
	}
	m.r.SetState(st)
	m.stats.RerandMisp = r.U64()
	m.stats.RerandEvict = r.U64()
	m.stats.RerandTage = r.U64()
	m.stats.TokensIssued = r.U64()

	// A key reference takes 16 bytes and a record 32: a count the rest
	// of the input cannot hold is corrupt, and is rejected before it is
	// allocated for.
	nKeys := r.Len()
	if nKeys > r.Remaining()/16 {
		r.Fail("token: %d entity keys cannot fit in the last %d bytes", nKeys, r.Remaining())
		return
	}
	type ref struct {
		key uint64
		id  int
	}
	refs := make([]ref, 0, nKeys)
	maxID := -1
	for i := 0; i < nKeys; i++ {
		k := r.U64()
		id := r.Int()
		if id > maxID {
			maxID = id
		}
		refs = append(refs, ref{key: k, id: id})
	}
	nRecords := r.Len()
	if nRecords > r.Remaining()/32 {
		r.Fail("token: %d entity records cannot fit in the last %d bytes", nRecords, r.Remaining())
		return
	}
	records := make([]*entity, nRecords)
	for i := range records {
		e := &entity{}
		e.st.Psi = r.U32()
		e.st.Phi = r.U32()
		e.ctr.misp = r.U64()
		e.ctr.evict = r.U64()
		e.ctr.tage = r.U64()
		records[i] = e
	}
	if r.Err() != nil || maxID >= nRecords {
		return // leave the manager untouched on corrupt input
	}
	m.entities = make(map[uint64]*entity, nKeys)
	for _, rf := range refs {
		if rf.id < 0 || rf.id >= nRecords {
			continue
		}
		m.entities[rf.key] = records[rf.id]
	}
}
