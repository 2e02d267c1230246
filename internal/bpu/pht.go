package bpu

// PHT is a table of 2-bit saturating counters: the base direction
// predictor. Counter states run from 0 (strongly not-taken) to 3 (strongly
// taken). PHT entries are never evicted (Table I: "PHT entries are not
// evicted") — a colliding branch reuses and retrains the counter instead.
// The size is a power of two, so an index wraps by masking its low bits.
type PHT struct {
	counters []uint8
	mask     uint32 // len(counters) - 1
}

// NewPHT allocates a table with n counters, initialized weakly not-taken.
// It panics unless n is a positive power of two.
func NewPHT(n int) *PHT {
	if n <= 0 || n&(n-1) != 0 {
		panic("bpu: PHT size must be a positive power of two")
	}
	p := &PHT{counters: make([]uint8, n), mask: uint32(n - 1)}
	p.Flush()
	return p
}

// Size returns the counter count.
func (p *PHT) Size() int { return len(p.counters) }

// Snapshot copies the full counter state. BRB-style defenses retain a
// per-process copy of the directional predictor across context switches.
func (p *PHT) Snapshot() []uint8 {
	out := make([]uint8, len(p.counters))
	copy(out, p.counters)
	return out
}

// Restore overwrites the counter state from a snapshot taken on a table of
// the same size. A nil snapshot resets to the initial weakly-not-taken
// state (a process with no retained history starts cold).
func (p *PHT) Restore(snap []uint8) {
	if snap == nil {
		p.Flush()
		return
	}
	if len(snap) != len(p.counters) {
		panic("bpu: PHT snapshot size mismatch")
	}
	copy(p.counters, snap)
}

// Predict returns the direction for the given index.
func (p *PHT) Predict(idx uint32) bool {
	return p.counters[idx&p.mask] >= 2
}

// Counter exposes the raw state (attack models read it to emulate
// BranchScope-style state probing).
func (p *PHT) Counter(idx uint32) uint8 {
	return p.counters[idx&p.mask]
}

// Update trains the counter toward the outcome.
func (p *PHT) Update(idx uint32, taken bool) {
	i := idx & p.mask
	c := p.counters[i]
	if taken {
		if c < 3 {
			p.counters[i] = c + 1
		}
	} else if c > 0 {
		p.counters[i] = c - 1
	}
}

// Flush resets every counter to the weakly not-taken state, doubling
// the filled prefix with each copy.
func (p *PHT) Flush() {
	c := p.counters
	c[0] = 1 // weakly not-taken
	for n := 1; n < len(c); n *= 2 {
		copy(c[n:], c[:n])
	}
}
