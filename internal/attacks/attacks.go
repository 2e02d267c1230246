// Package attacks implements the collision-based BPU attack surface of
// Table I as executable attack drivers, run against both the unprotected
// baseline and STBPU. Each driver plays an attacker entity and a victim
// entity through a sim.Model, observing only what the threat model allows:
// the attacker sees its *own* predictions and mispredictions (the software
// proxy for timing measurements) and never reads tokens or table state.
//
// The drivers return event counts (mispredictions, evictions, trials) that
// the tests and the experiment harness compare against the closed-form
// complexities of internal/analysis — the paper's §VI argument, validated
// empirically at feasible scales.
package attacks

import (
	"stbpu/internal/bpu"
	"stbpu/internal/core"
	"stbpu/internal/sim"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

// Entity IDs for the two parties. The victim may also be the kernel
// (Kernel/VMM-as-victim scenario); drivers take a flag where relevant.
const (
	AttackerPID uint32 = 1
	VictimPID   uint32 = 2
)

// Result reports one attack run.
type Result struct {
	// Attack names the driver; Model names the defense under attack.
	Attack string
	Model  string
	// Succeeded reports whether the adversarial effect was achieved
	// within the budget.
	Succeeded bool
	// Trials is the number of attack iterations consumed.
	Trials int
	// AttackerMispredicts and Evictions are the monitored events the
	// attack generated (what STBPU's thresholds count).
	AttackerMispredicts uint64
	Evictions           uint64
	// Rerandomizations observed on STBPU targets (0 on baseline).
	Rerandomizations uint64
	// Leak carries attack-specific recovered information (e.g. the
	// victim's branch direction) for verification.
	Leak string
}

// Target bundles the model under attack with introspection hooks the
// drivers use for bookkeeping (never for the attack decision itself).
type Target struct {
	// Model is the BPU under attack.
	Model sim.Model
	// Name labels the defense.
	Name string
}

// NewBaselineTarget builds an unprotected Skylake-style BPU target.
func NewBaselineTarget() *Target {
	return &Target{
		Model: &sim.UnitModel{ModelName: "baseline", Unit: core.NewUnprotectedUnit(core.DirSKLCond)},
		Name:  "baseline",
	}
}

// NewSTBPUTarget builds an STBPU target with the given re-randomization
// thresholds (nil means the paper's r=0.05 defaults) and the historical
// fixed token seed.
func NewSTBPUTarget(th *token.Thresholds) *Target {
	return NewSTBPUTargetSeeded(th, 0xa77ac4)
}

// NewSTBPUTargetSeeded is NewSTBPUTarget with an explicit token-stream
// seed, for harness-driven runs whose seeds derive from a root seed.
func NewSTBPUTargetSeeded(th *token.Thresholds, seed uint64) *Target {
	m := core.NewModel(core.ModelConfig{Dir: core.DirSKLCond, Thresholds: th, Seed: seed})
	return &Target{Model: m, Name: "STBPU"}
}

// Rerandomizations reports the token re-randomizations of an STBPU
// target's model so far (0 on any other model).
func (t *Target) Rerandomizations() uint64 {
	if m, ok := t.Model.(*core.Model); ok {
		return m.Rerandomizations()
	}
	return 0
}

// step runs one record and returns the prediction/events pair.
func (t *Target) step(rec trace.Record) (bpu.Prediction, bpu.Events) {
	return t.Model.Step(rec)
}

// ---------------------------------------------------------------------------
// Record crafting helpers.

func jmp(pc, target uint64, pid uint32) trace.Record {
	return trace.Record{PC: pc & trace.VAMask, Target: target & trace.VAMask,
		Kind: trace.KindDirectJump, Taken: true, PID: pid}
}

func ijmp(pc, target uint64, pid uint32) trace.Record {
	return trace.Record{PC: pc & trace.VAMask, Target: target & trace.VAMask,
		Kind: trace.KindIndirectJump, Taken: true, PID: pid}
}

func condRec(pc uint64, taken bool, pid uint32) trace.Record {
	rec := trace.Record{PC: pc & trace.VAMask, Kind: trace.KindCond, Taken: taken, PID: pid}
	if taken {
		rec.Target = (pc + 0x40) & trace.VAMask
	} else {
		rec.Target = rec.FallThrough()
	}
	return rec
}

func callRec(pc, target uint64, pid uint32) trace.Record {
	return trace.Record{PC: pc & trace.VAMask, Target: target & trace.VAMask,
		Kind: trace.KindDirectCall, Taken: true, PID: pid}
}

func retRec(pc, target uint64, pid uint32) trace.Record {
	return trace.Record{PC: pc & trace.VAMask, Target: target & trace.VAMask,
		Kind: trace.KindReturn, Taken: true, PID: pid}
}

// Address pools: attacker code lives in its own region; aliasing addresses
// are crafted per attack.
const (
	attackerBase = uint64(0x0000_1100_0000)
	victimBase   = uint64(0x0000_2200_0000)
	gadgetAddr   = uint64(0x0000_2200_4000) // in victim's space
)
