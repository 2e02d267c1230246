// Package core implements the paper's contribution: the Secret-Token
// Branch Prediction Unit (STBPU, §IV). It wires keyed remapping functions
// (internal/remap) and XOR target encryption into the baseline BPU
// structures (internal/bpu) and the advanced predictors (internal/tage,
// internal/perceptron), and drives secret-token re-randomization from
// misprediction/eviction monitoring (internal/token).
//
// Four protected models mirror the paper's evaluation: ST_SKLCond,
// ST_TAGE_SC_L_8KB, ST_TAGE_SC_L_64KB, and ST_PerceptronBP, each paired
// with an unprotected twin built from the same components.
package core

import (
	"fmt"

	"stbpu/internal/bpu"
	"stbpu/internal/ittage"
	"stbpu/internal/perceptron"
	"stbpu/internal/remap"
	"stbpu/internal/tage"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

// DirKind selects the conditional direction predictor of a model.
type DirKind int

const (
	// DirSKLCond is the baseline Skylake-style hybrid (§II-A).
	DirSKLCond DirKind = iota
	// DirTAGE8 is TAGE-SC-L 8KB.
	DirTAGE8
	// DirTAGE64 is TAGE-SC-L 64KB.
	DirTAGE64
	// DirPerceptron is PerceptronBP.
	DirPerceptron
)

// String names the predictor as the paper's figures do.
func (d DirKind) String() string {
	switch d {
	case DirSKLCond:
		return "SKLCond"
	case DirTAGE8:
		return "TAGE_SC_L_8KB"
	case DirTAGE64:
		return "TAGE_SC_L_64KB"
	case DirPerceptron:
		return "PerceptronBP"
	default:
		return fmt.Sprintf("DirKind(%d)", int(d))
	}
}

// keyState holds the live ψ/φ of the hardware thread's current entity and
// implements every index interface the structures consume. A single
// pointer is shared by the BTB mapper, the TAGE hasher and the perceptron
// index, so loading a new token re-keys the whole BPU at once — no state
// is flushed, prior entries simply become unreachable under the new
// mapping (§IV-A).
type keyState struct {
	funcs remap.Funcs
	psi   uint32
	phi   uint32
}

var (
	_ bpu.Mapper  = (*keyState)(nil)
	_ tage.Hasher = (*keyState)(nil)
)

// BTBIndex implements bpu.Mapper via R1.
func (k *keyState) BTBIndex(pc uint64) (set, tag, offs uint32) {
	return k.funcs.R1(k.psi, pc)
}

// BTBTagBHB implements bpu.Mapper via R2.
func (k *keyState) BTBTagBHB(bhb uint64) uint32 { return k.funcs.R2(k.psi, bhb) }

// PHT1 implements bpu.Mapper via R3.
func (k *keyState) PHT1(pc uint64) uint32 { return k.funcs.R3(k.psi, pc) }

// PHT2 implements bpu.Mapper via R4.
func (k *keyState) PHT2(pc uint64, ghr uint64) uint32 {
	return k.funcs.R4(k.psi, uint16(ghr), pc)
}

// EncryptTarget implements bpu.Mapper: stored targets are XORed with φ, so
// a cross-token hit decrypts to a random address and stalls malicious
// speculation (§IV-B).
func (k *keyState) EncryptTarget(t uint32) uint32 { return t ^ k.phi }

// DecryptTarget implements bpu.Mapper.
func (k *keyState) DecryptTarget(t uint32) uint32 { return t ^ k.phi }

// BankIndexTags implements tage.Hasher via Rt, folding the bank number
// into each bank's history input so banks are independently keyed.
func (k *keyState) BankIndexTags(pc uint64, folds []tage.Fold, indexBits, tagBits uint, idx, tag []uint32) {
	idx, tag = idx[:len(folds)], tag[:len(folds)]
	for b, f := range folds {
		idx[b], tag[b] = k.funcs.Rt(k.psi, pc, f.Idx^f.Tag<<13^uint64(b)<<27, indexBits, tagBits)
	}
}

// TableIndex implements tage.Hasher via R3 with the fold mixed into the
// address bits.
func (k *keyState) TableIndex(pc uint64, fold uint64, bits uint) uint32 {
	return k.funcs.R3(k.psi, pc^(fold<<3)) & (1<<bits - 1)
}

// PerceptronIndex is the Rp-keyed perceptron row hash.
func (k *keyState) PerceptronIndex(pc uint64) uint32 {
	return k.funcs.Rp(k.psi, pc)
}

// ITIndexTag implements ittage.Hasher via Rt with a bank-separated
// history fold, so an ST-protected ITTAGE keys every bank independently
// (the same construction BankIndexTags uses for TAGE).
func (k *keyState) ITIndexTag(pc uint64, fold uint64, bank int, indexBits, tagBits uint) (idx, tag uint32) {
	return k.funcs.Rt(k.psi, pc, fold^uint64(bank)<<29, indexBits, tagBits)
}

// EntityKey derives the token-table key for a trace record: the kernel is
// one entity; user processes key by PID, or by program when the OS opted
// into selective token sharing (pre-forked servers, §IV-A).
func EntityKey(rec trace.Record, sharedTokens bool) uint64 {
	if rec.Kernel {
		return kernelKey
	}
	if sharedTokens {
		return programKey | uint64(rec.Program)
	}
	return uint64(rec.PID)
}

// kernelKey and programKey are the EntityKey namespaces: the kernel is
// one entity, and shared-token mode keys by program.
const (
	kernelKey  = uint64(1) << 63
	programKey = uint64(1) << 62
)

// ModelConfig assembles an STBPU model.
type ModelConfig struct {
	// Dir picks the direction predictor.
	Dir DirKind
	// Funcs is the remapping backend; nil means the fast Mixer.
	Funcs remap.Funcs
	// Thresholds are the re-randomization budgets; the zero value means
	// token.Derive(token.DefaultR).
	Thresholds *token.Thresholds
	// SharedTokens keys tokens by program instead of PID (OS policy for
	// same-binary process groups).
	SharedTokens bool
	// IndirectITTAGE attaches a dedicated ITTAGE indirect-target
	// predictor (keyed by the same token) ahead of the BTB mode-two
	// path.
	IndirectITTAGE bool
	// Seed fixes the token PRNG stream.
	Seed uint64
}

// Model is a complete STBPU: a BPU unit keyed by per-entity secret tokens
// with automatic re-randomization. The trace-driven simulator, the CPU
// model and the attack drivers use it as it is: Name, Step,
// StepColumns, EncodeState and DecodeState make it a sim.Model,
// sim.ColumnModel and sim.Snapshotter.
type Model struct {
	name string
	unit *bpu.Unit
	key  *keyState
	mgr  *token.Manager

	tagePred *tage.Predictor // non-nil for TAGE models

	sharedTokens bool
	lastTageMisp uint64

	curKey  uint64
	haveKey bool
}

// NewModel builds an ST-protected model.
func NewModel(cfg ModelConfig) *Model {
	funcs := cfg.Funcs
	if funcs == nil {
		funcs = remap.NewMixer()
	}
	th := token.Derive(token.DefaultR)
	if cfg.Thresholds != nil {
		th = *cfg.Thresholds
	}
	if cfg.Dir != DirTAGE8 && cfg.Dir != DirTAGE64 {
		th.TageMispredictions = 0 // only TAGE models have the register (§VII-B2)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x57_0001
	}

	m := &Model{
		name:         "ST_" + cfg.Dir.String(),
		key:          &keyState{funcs: funcs},
		mgr:          token.NewManager(seed, th),
		sharedTokens: cfg.SharedTokens,
	}
	var dir bpu.DirectionPredictor
	switch cfg.Dir {
	case DirTAGE8:
		tcfg := tage.Config8KB()
		tcfg.Hasher = m.key
		m.tagePred = tage.New(tcfg)
		dir = m.tagePred
	case DirTAGE64:
		tcfg := tage.Config64KB()
		tcfg.Hasher = m.key
		m.tagePred = tage.New(tcfg)
		dir = m.tagePred
	case DirPerceptron:
		pcfg := perceptron.DefaultConfig()
		pcfg.Index = m.key.PerceptronIndex
		dir = perceptron.New(pcfg)
	default:
		dir = bpu.NewSKLCond(m.key)
	}
	ucfg := bpu.UnitConfig{Mapper: m.key, Direction: dir}
	if cfg.IndirectITTAGE {
		icfg := ittage.DefaultConfig()
		icfg.Hasher = m.key
		ind, err := ittage.New(icfg)
		if err != nil {
			panic(err) // DefaultConfig is always valid
		}
		ucfg.Indirect = ind
		m.name += "+ITTAGE"
	}
	m.unit = bpu.NewUnit(ucfg)
	return m
}

// NewUnprotectedUnit builds the unprotected twin of an ST model: same
// structures and predictor, legacy deterministic mappings, no tokens.
func NewUnprotectedUnit(dir DirKind) *bpu.Unit {
	return bpu.NewUnit(bpu.UnitConfig{Direction: unprotectedDir(dir)})
}

// NewUnprotectedUnitITTAGE is the unprotected twin with a legacy-hashed
// ITTAGE attached, for the indirect-prediction extension comparison.
func NewUnprotectedUnitITTAGE(dir DirKind) *bpu.Unit {
	ind, err := ittage.New(ittage.DefaultConfig())
	if err != nil {
		panic(err) // DefaultConfig is always valid
	}
	return bpu.NewUnit(bpu.UnitConfig{Direction: unprotectedDir(dir), Indirect: ind})
}

func unprotectedDir(dir DirKind) bpu.DirectionPredictor {
	switch dir {
	case DirTAGE8:
		return tage.New(tage.Config8KB())
	case DirTAGE64:
		return tage.New(tage.Config64KB())
	case DirPerceptron:
		return perceptron.New(perceptron.DefaultConfig())
	default:
		return nil // NewUnit defaults to SKLCond over the legacy mapper
	}
}

// Name returns the model name ("ST_TAGE_SC_L_64KB", ...).
func (m *Model) Name() string { return m.name }

// Unit exposes the underlying BPU (attack drivers need structure access).
func (m *Model) Unit() *bpu.Unit { return m.unit }

// TokenManager exposes token state for experiments and attacks.
func (m *Model) TokenManager() *token.Manager { return m.mgr }

// CurrentToken returns the live ψ/φ (tests and the security analysis use
// it as the omniscient observer; attackers cannot, per the threat model).
func (m *Model) CurrentToken() token.ST { return token.ST{Psi: m.key.psi, Phi: m.key.phi} }

// loadToken installs an entity's token into the hardware thread register.
func (m *Model) loadToken(key uint64) {
	st := m.mgr.TokenFor(key)
	m.key.psi, m.key.phi = st.Psi, st.Phi
	m.curKey, m.haveKey = key, true
}

// applyST installs a re-randomized token for the current entity.
func (m *Model) applyST(st token.ST) {
	m.key.psi, m.key.phi = st.Psi, st.Phi
}

// Step processes one retired branch: token switch on entity change,
// predict, update, and threshold monitoring. It returns the prediction
// made and the resolution events.
func (m *Model) Step(rec trace.Record) (bpu.Prediction, bpu.Events) {
	key := EntityKey(rec, m.sharedTokens)
	if !m.haveKey || key != m.curKey {
		m.loadToken(key)
	}
	pred := m.unit.Predict(rec.PC, rec.Kind)
	ev := m.unit.Update(rec, pred)
	m.monitor(key, ev)
	return pred, ev
}

// StepColumns processes rows [lo,hi) of a columnar trace — the
// struct-of-arrays twin of Step, and the suite's hot replay loop.
// The entity key comes straight from the flag/PID/program columns
// (branchless flag extraction, no 32-byte struct assembly), and each
// row resolves through bpu.Unit.Resolve, which returns exactly what
// Step's Predict/Update pair does without building the Prediction
// nobody here reads. Every row goes through the Step sequence — token
// switch, resolve, threshold monitoring — so columnar and per-record
// replay are bit-identical (pinned by the sim package's
// columnar-vs-step test).
func (m *Model) StepColumns(cols *trace.Columns, lo, hi int, acc *bpu.Counters) {
	pcs, targets, flags := cols.PCs, cols.Targets, cols.Flags
	pids, progs := cols.PIDs, cols.Programs
	for i := lo; i < hi; i++ {
		f := flags[i]
		var key uint64
		switch {
		case f&trace.FlagKernel != 0:
			key = kernelKey
		case m.sharedTokens:
			key = programKey | uint64(progs[i])
		default:
			key = uint64(pids[i])
		}
		if !m.haveKey || key != m.curKey {
			m.loadToken(key)
		}
		ev := m.unit.Resolve(pcs[i], targets[i], trace.Kind(f&trace.FlagKindMask), f&trace.FlagTaken != 0)
		m.monitor(key, ev)
		acc.Note(ev)
	}
}

// monitor is the threshold monitoring that follows each resolved
// branch of entity key: mispredictions and BTB evictions count against
// the entity's budgets, and an exhausted budget installs a
// re-randomized token. TAGE models route tagged-bank mispredictions to
// their dedicated register (§VII-B2).
func (m *Model) monitor(key uint64, ev bpu.Events) {
	if ev.Mispredict() {
		viaTage := false
		if m.tagePred != nil {
			if tm := m.tagePred.TageMispredicts; tm != m.lastTageMisp {
				m.lastTageMisp = tm
				viaTage = true
			}
		}
		var st token.ST
		var rerand bool
		if viaTage {
			st, rerand = m.mgr.OnTageMisprediction(key)
		} else {
			st, rerand = m.mgr.OnMisprediction(key)
		}
		if rerand {
			m.applyST(st)
		}
	} else if m.tagePred != nil {
		m.lastTageMisp = m.tagePred.TageMispredicts
	}
	if ev.BTBEviction() {
		if st, rerand := m.mgr.OnEviction(key); rerand {
			m.applyST(st)
		}
	}
}

// Rerandomizations reports total token re-randomizations so far.
func (m *Model) Rerandomizations() uint64 { return m.mgr.Stats().Total() }
