// Package defenses implements the related-work secure-BPU designs the
// paper compares against in §VIII, as trace-driven models compatible with
// the simulator's Model interface:
//
//	BRB    — Vougioukas et al., HPCA 2019: a branch retention buffer that
//	         saves/restores the entire directional-predictor state per
//	         process instead of flushing it. Mitigates cross-process PHT
//	         collision attacks (BranchScope); leaves the BTB and RSB
//	         shared and deterministic.
//	BSUP   — Lee, Ishii, Sunwoo, TACO 2020: two-level encryption. The PC
//	         is encrypted before indexing (level 1) and stored entries are
//	         encrypted (level 2) with per-context keys that are re-keyed
//	         periodically (a key lifetime) and on context switches. A
//	         single key register per core makes it unsuitable for SMT.
//	Zhao   — Zhao et al., DAC 2021: lightweight isolation. Branch indexes
//	         and contents are XORed with thread-private random numbers
//	         that are re-generated on every context and mode switch.
//	         Within one process the mapping stays deterministic, so
//	         same-address-space attacks (transient trojans, §III) remain.
//	Exynos — Grayson et al., ISCA 2020: the Samsung Exynos BPU encrypts
//	         only stored indirect-branch and return targets with a key
//	         derived by hashing process- and machine-specific inputs; no
//	         re-randomization and no protection for the directional side.
//
// These models exist so the evaluation can compare STBPU's security and
// accuracy retention against its published alternatives on equal footing:
// same baseline structures (internal/bpu), same traces, same attack
// drivers (internal/attacks). Each model documents which Table I attack
// classes it stops and which it leaves open; internal/defenses tests and
// the defense-matrix experiment verify those claims executably.
package defenses

import (
	"fmt"

	"stbpu/internal/sim"
	"stbpu/internal/trace"
)

// Kind enumerates the related-work defense models.
type Kind int

const (
	// KindBRB is the branch retention buffer (HPCA 2019).
	KindBRB Kind = iota
	// KindBSUP is two-level encryption (TACO 2020).
	KindBSUP
	// KindZhao is lightweight XOR isolation (DAC 2021).
	KindZhao
	// KindExynos is the Samsung Exynos target-encryption scheme (ISCA 2020).
	KindExynos
)

// String names the defense as in §VIII.
func (k Kind) String() string {
	switch k {
	case KindBRB:
		return "BRB"
	case KindBSUP:
		return "BSUP"
	case KindZhao:
		return "Zhao-DAC21"
	case KindExynos:
		return "Exynos-XOR"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds returns all defense kinds in presentation order.
func Kinds() []Kind { return []Kind{KindBRB, KindBSUP, KindZhao, KindExynos} }

// Options carries the shared construction knobs.
type Options struct {
	// Seed fixes the key/mask PRNG stream. Zero selects a fixed default
	// so runs are reproducible by default.
	Seed uint64
	// RetentionSlots bounds how many process contexts BRB retains
	// (default 8, the paper's SRAM-budget argument).
	RetentionSlots int
	// KeyLifetime is BSUP's periodic re-key interval in retired branches
	// (default 64k, mirroring the paper's epoch-counter sizing).
	KeyLifetime uint64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 0xdef_0001
	}
	if o.RetentionSlots == 0 {
		o.RetentionSlots = 8
	}
	if o.KeyLifetime == 0 {
		o.KeyLifetime = 64 << 10
	}
	return o
}

// New constructs a defense model: a sim.Model, so defenses drop into
// the trace simulator, the CPU model, and the attack drivers as they are.
func New(kind Kind, opt Options) sim.Model {
	opt = opt.withDefaults()
	switch kind {
	case KindBRB:
		return NewBRB(opt)
	case KindBSUP:
		return NewBSUP(opt)
	case KindZhao:
		return NewZhao(opt)
	case KindExynos:
		return NewExynos(opt)
	default:
		panic(fmt.Sprintf("defenses: unknown kind %d", int(kind)))
	}
}

// entityKey folds the privilege mode into the process identity: the kernel
// is its own software entity for every defense here, matching how each
// published design separates privilege levels.
func entityKey(rec trace.Record) uint64 {
	k := uint64(rec.PID)
	if rec.Kernel {
		k |= 1 << 63
	}
	return k
}

// switchDetector tracks entity changes across Step calls. All four models
// act on context/mode switches; this keeps the edge detection in one
// place.
type switchDetector struct {
	cur     uint64
	started bool
}

// observe returns (previousKey, switched) for the record's entity.
func (d *switchDetector) observe(rec trace.Record) (prev uint64, switched bool) {
	key := entityKey(rec)
	prev, switched = d.cur, d.started && key != d.cur
	d.cur = key
	if !d.started {
		d.started = true
	}
	return prev, switched
}

// Current returns the active entity key.
func (d *switchDetector) Current() uint64 { return d.cur }
