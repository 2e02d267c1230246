package bpu

// btbEntry is one BTB way. The baseline stores a compressed tag, a 5-bit
// offset, and the low 32 bits of the target. In full-tag (conservative)
// mode the entry additionally keeps the complete branch address, which
// doubles entry size and halves capacity for the same hardware budget
// (§VII-B1).
type btbEntry struct {
	valid  bool
	tag    uint32
	offs   uint32
	target uint32 // possibly encrypted, per the active Mapper
	fullPC uint64 // conservative mode only
	lru    uint32 // larger = more recently used
}

// BTBConfig sizes a branch target buffer.
type BTBConfig struct {
	// Sets and Ways give the geometry (baseline 512×8). Sets must be a
	// power of two: a set index wraps by masking its low bits.
	Sets, Ways int
	// FullTags enables the conservative model: entries store the full
	// 48-bit branch address and hit only on exact matches.
	FullTags bool
}

// BaselineBTBConfig is the Skylake-style 4096-entry, 8-way geometry.
func BaselineBTBConfig() BTBConfig { return BTBConfig{Sets: BTBSets, Ways: BTBWays} }

// ConservativeBTBConfig halves capacity to pay for full 48-bit tags.
func ConservativeBTBConfig() BTBConfig {
	return BTBConfig{Sets: BTBSets / 2, Ways: BTBWays, FullTags: true}
}

// BTB is a set-associative branch target buffer with LRU replacement.
type BTB struct {
	cfg     BTBConfig
	entries []btbEntry // sets × ways, row-major
	clock   uint32
	// Evictions counts valid entries displaced by inserts since the last
	// ResetCounters — the event STBPU's threshold MSRs monitor.
	Evictions uint64
}

// NewBTB allocates a BTB with the given geometry. It panics unless both
// dimensions are positive and Sets is a power of two.
func NewBTB(cfg BTBConfig) *BTB {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic("bpu: BTB geometry must be positive")
	}
	if cfg.Sets&(cfg.Sets-1) != 0 {
		panic("bpu: BTB set count must be a power of two")
	}
	return &BTB{cfg: cfg, entries: make([]btbEntry, cfg.Sets*cfg.Ways)}
}

// Config returns the geometry.
func (b *BTB) Config() BTBConfig { return b.cfg }

// Sets returns the set count (needed by attack drivers and analysis).
func (b *BTB) Sets() int { return b.cfg.Sets }

// Ways returns the associativity.
func (b *BTB) Ways() int { return b.cfg.Ways }

func (b *BTB) set(i uint32) []btbEntry {
	i &= uint32(b.cfg.Sets - 1)
	return b.entries[int(i)*b.cfg.Ways : (int(i)+1)*b.cfg.Ways]
}

// Lookup finds the stored (possibly encrypted) target for the given
// set/tag/offset. fullPC is consulted only in FullTags mode. A hit
// refreshes LRU state.
func (b *BTB) Lookup(set, tag, offs uint32, fullPC uint64) (target uint32, hit bool) {
	ways := b.set(set)
	for i := range ways {
		e := &ways[i]
		if !e.valid || e.tag != tag || e.offs != offs {
			continue
		}
		if b.cfg.FullTags && e.fullPC != fullPC {
			continue
		}
		b.clock++
		e.lru = b.clock
		return e.target, true
	}
	return 0, false
}

// Insert stores a target for set/tag/offset, replacing the LRU way if the
// set is full. It reports whether a valid entry was evicted (a different
// branch's entry was displaced).
func (b *BTB) Insert(set, tag, offs uint32, fullPC uint64, target uint32) (evicted bool) {
	ways := b.set(set)
	b.clock++
	// Update in place on tag match.
	for i := range ways {
		e := &ways[i]
		if e.valid && e.tag == tag && e.offs == offs && (!b.cfg.FullTags || e.fullPC == fullPC) {
			e.target = target
			e.lru = b.clock
			return false
		}
	}
	// Fill an invalid way if any.
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		// Evict LRU.
		victim = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < ways[victim].lru {
				victim = i
			}
		}
		evicted = true
		b.Evictions++
	}
	ways[victim] = btbEntry{valid: true, tag: tag, offs: offs, target: target, fullPC: fullPC, lru: b.clock}
	return evicted
}

// Flush invalidates every entry (IBPB-style barrier).
func (b *BTB) Flush() {
	for i := range b.entries {
		b.entries[i] = btbEntry{}
	}
}

// ResetCounters zeroes the eviction counter.
func (b *BTB) ResetCounters() { b.Evictions = 0 }

// Occupancy returns the number of valid entries (used by tests and the
// attack drivers to verify priming).
func (b *BTB) Occupancy() int {
	n := 0
	for i := range b.entries {
		if b.entries[i].valid {
			n++
		}
	}
	return n
}
