// Snapshot support: the Snapshotter capability every Fig. 3 model
// implements, plus the model fingerprint the snapstore keys checkpoints
// by. A Snapshotter round-trips its complete predictor state through a
// deterministic binary encoding (core.EncodeUnit carries every model's
// BPU), so phase measurements restore a shared warm prefix instead of
// replaying it, and the store's cache and disk tiers hold bytes, not
// live models. Models that do not implement Snapshotter still work
// everywhere — the scheduler falls back to prefix replay for them.

package sim

import (
	"fmt"

	"stbpu/internal/core"
	"stbpu/internal/snap"
)

// Snapshotter is the warm-state checkpoint capability. The contract is
// bit-identity: replaying records [k,n) on a fresh model of the same
// configuration after DecodeState(EncodeState()) produces exactly the
// Counters that replaying them on the original would have, provided the
// original had replayed records [0,k). Encoding is canonical: two models
// in the same logical state encode to the same bytes (lookup-stash
// fields that are dead at record boundaries are reset on decode).
type Snapshotter interface {
	Model
	// EncodeState serializes the model's complete mutable state.
	EncodeState() []byte
	// DecodeState restores state captured by EncodeState on a model of
	// the same configuration. On error the model state is unspecified
	// and the caller must discard it.
	DecodeState(data []byte) error
}

// Fingerprint identifies a model configuration for snapstore keying: two
// (kind, opt) pairs with equal fingerprints build models whose snapshots
// are interchangeable. The seed is part of the fingerprint because the
// token PRNG stream is part of the state.
func Fingerprint(kind ModelKind, opt Options) string {
	th := "default"
	if opt.Thresholds != nil {
		t := *opt.Thresholds
		th = fmt.Sprintf("%d/%d/%d", t.Mispredictions, t.Evictions, t.TageMispredictions)
	}
	return fmt.Sprintf("%s|dir=%s|shared=%t|th=%s|seed=%#x", kind, opt.Dir, opt.SharedTokens, th, opt.Seed)
}

// EncodeState implements Snapshotter. The conservative model's entity
// salt is not state: setEntity overwrites it before every predict, so at
// a record boundary it is dead and decodes start it at zero.
func (m *UnitModel) EncodeState() []byte {
	w := snap.NewWriter(4096)
	core.EncodeUnit(m.Unit, w)
	return w.Bytes()
}

// DecodeState implements Snapshotter.
func (m *UnitModel) DecodeState(data []byte) error {
	r := snap.NewReader(data)
	core.DecodeUnit(m.Unit, r)
	if m.entity != nil {
		m.entity.salt = 0
	}
	return r.Done()
}

// EncodeState implements Snapshotter: the unit state plus the flush
// policy's switch-tracking registers and barrier count.
func (m *FlushModel) EncodeState() []byte {
	w := snap.NewWriter(4096)
	core.EncodeUnit(m.Unit, w)
	w.U64(m.flushes)
	w.U32(m.prevPID)
	w.Bool(m.prevKernel)
	w.Bool(m.started)
	return w.Bytes()
}

// DecodeState implements Snapshotter.
func (m *FlushModel) DecodeState(data []byte) error {
	r := snap.NewReader(data)
	core.DecodeUnit(m.Unit, r)
	m.flushes = r.U64()
	m.prevPID = r.U32()
	m.prevKernel = r.Bool()
	m.started = r.Bool()
	if m.entity != nil {
		m.entity.salt = 0
	}
	return r.Done()
}

// EncodeState implements Snapshotter.
func (m *STBPUModel) EncodeState() []byte {
	w := snap.NewWriter(1 << 16)
	m.Inner.EncodeState(w)
	return w.Bytes()
}

// DecodeState implements Snapshotter.
func (m *STBPUModel) DecodeState(data []byte) error {
	r := snap.NewReader(data)
	m.Inner.DecodeState(r)
	return r.Done()
}

// Compile-time capability checks: every Fig. 3 model snapshots.
var (
	_ Snapshotter = (*UnitModel)(nil)
	_ Snapshotter = (*FlushModel)(nil)
	_ Snapshotter = (*STBPUModel)(nil)
)
