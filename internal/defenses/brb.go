package defenses

import (
	"stbpu/internal/bpu"
	"stbpu/internal/trace"
)

// BRB models the branch retention buffer of Vougioukas et al. (HPCA 2019):
// instead of flushing the directional predictor on a context switch, the
// outgoing process's predictor state is saved into a retention buffer and
// the incoming process's state is restored. Each process therefore sees a
// private directional predictor, which stops cross-process PHT collision
// attacks (BranchScope-class, Table I PHT rows) and preserves per-process
// direction history.
//
// What BRB does NOT protect (and the security tests demonstrate): the BTB
// and RSB stay shared with deterministic legacy mappings, so BTB
// reuse/eviction attacks, Spectre-v2 target injection, SpectreRSB, and
// same-address-space trojans all remain viable.
type BRB struct {
	unit *bpu.Unit
	dir  *bpu.SKLCond
	sw   switchDetector

	slots map[uint64]*brbSlot
	// lru orders retained entities, most recent last.
	lru      []uint64
	capacity int

	// Saves, Restores, ColdRestores, Discards count retention traffic for
	// the experiment reports.
	Saves        uint64
	Restores     uint64
	ColdRestores uint64
	Discards     uint64
}

type brbSlot struct {
	state bpu.DirState
}

// NewBRB builds a BRB-protected baseline BPU.
func NewBRB(opt Options) *BRB {
	opt = opt.withDefaults()
	dir := bpu.NewSKLCond(bpu.LegacyMapper{})
	return &BRB{
		unit:     bpu.NewUnit(bpu.UnitConfig{Direction: dir}),
		dir:      dir,
		slots:    make(map[uint64]*brbSlot),
		capacity: opt.RetentionSlots,
	}
}

// Name implements sim.Model.
func (b *BRB) Name() string { return KindBRB.String() }

// Unit exposes the underlying BPU for attack drivers.
func (b *BRB) Unit() *bpu.Unit { return b.unit }

// RetainedEntities reports how many process contexts are currently held.
func (b *BRB) RetainedEntities() int { return len(b.slots) }

// Step implements sim.Model.
func (b *BRB) Step(rec trace.Record) (bpu.Prediction, bpu.Events) {
	if prev, switched := b.sw.observe(rec); switched {
		b.save(prev)
		b.restore(entityKey(rec))
	}
	pred := b.unit.Predict(rec.PC, rec.Kind)
	return pred, b.unit.Update(rec, pred)
}

// save snapshots the outgoing entity's directional state, evicting the
// least recently used slot if the retention buffer is full.
func (b *BRB) save(key uint64) {
	slot, ok := b.slots[key]
	if !ok {
		if len(b.slots) >= b.capacity {
			victim := b.lru[0]
			b.lru = b.lru[1:]
			delete(b.slots, victim)
			b.Discards++
		}
		slot = &brbSlot{}
		b.slots[key] = slot
	}
	b.touch(key)
	slot.state = b.dir.Snapshot()
	b.Saves++
}

// restore installs the incoming entity's state, or a cold predictor if the
// entity has no retained slot.
func (b *BRB) restore(key uint64) {
	slot, ok := b.slots[key]
	if !ok {
		b.dir.Restore(bpu.DirState{})
		b.ColdRestores++
		return
	}
	b.touch(key)
	b.dir.Restore(slot.state)
	b.Restores++
}

// touch moves key to the most-recent end of the LRU order, appending it if
// absent.
func (b *BRB) touch(key uint64) {
	for i, k := range b.lru {
		if k == key {
			b.lru = append(b.lru[:i], b.lru[i+1:]...)
			break
		}
	}
	b.lru = append(b.lru, key)
}
