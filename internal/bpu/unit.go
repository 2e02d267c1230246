package bpu

import "stbpu/internal/trace"

// Prediction is the BPU's answer for one branch before resolution.
type Prediction struct {
	// Taken is the predicted direction (always true for unconditional
	// branches).
	Taken bool
	// Target is the predicted 48-bit target, valid when TargetValid.
	Target uint64
	// TargetValid reports whether any target structure hit (BTB or RSB).
	TargetValid bool
	// FromRSB marks return predictions served by the return stack.
	FromRSB bool
	// FromMode2 marks BTB hits via the BHB-tagged indirect path.
	FromMode2 bool
}

// Events reports what happened when a branch resolved — the inputs to OAE
// accounting, IPC modelling, and STBPU's threshold monitoring.
type Events struct {
	// IsCond marks conditional branches (direction accounting).
	IsCond bool
	// DirCorrect is the direction outcome for conditional branches.
	DirCorrect bool
	// TargetKnown marks branches whose taken target needed prediction
	// (all taken branches).
	TargetKnown bool
	// TargetCorrect is the target outcome among TargetKnown branches.
	TargetCorrect bool
	// Mispredict is the overall effective outcome: wrong direction or
	// wrong/missing target of a taken branch (OAE counts a branch correct
	// only if every necessary prediction was correct, §VII-B1).
	Mispredict bool
	// BTBEviction reports that updating the BTB displaced a valid entry.
	BTBEviction bool
	// BTBMiss reports that the lookup missed every target structure.
	BTBMiss bool
}

// IndirectPredictor is an optional dedicated indirect-target predictor
// (e.g. ITTAGE) consulted ahead of the BTB's mode-two path for indirect
// branches and return-stack underflows. It trades with the Unit in the
// same currency as the BTB: 32-bit stored targets that the Mapper has
// already encrypted, so an ST-protected Unit automatically extends φ
// encryption to it.
//
// Contract: UpdateTarget must follow the PredictTarget it resolves, with
// the same pc (the DirectionPredictor ordering rule).
type IndirectPredictor interface {
	// PredictTarget returns the stored 32-bit target for the branch, if
	// any table hits.
	PredictTarget(pc uint64) (stored uint32, ok bool)
	// UpdateTarget trains the predictor with the resolved stored target.
	UpdateTarget(pc uint64, stored uint32)
	// OnBranch advances the predictor's private path history with one
	// retired branch (every branch, taken or not — outcome history is
	// part of the context indirect targets correlate with).
	OnBranch(pc, target uint64, taken bool)
	// Flush clears all predictor state.
	Flush()
}

// Unit is a complete branch prediction unit: target structures, return
// stack, history registers, and a pluggable direction predictor, all
// addressed through a Mapper.
type Unit struct {
	mapper   Mapper
	dir      DirectionPredictor
	btb      *BTB
	rsb      *RSB
	indirect IndirectPredictor // optional
	hist     History
}

// UnitConfig assembles a Unit.
type UnitConfig struct {
	// Mapper addresses the structures; nil means LegacyMapper.
	Mapper Mapper
	// Direction is the conditional predictor; nil means a baseline
	// SKLCond over the same mapper.
	Direction DirectionPredictor
	// BTB geometry; zero means BaselineBTBConfig.
	BTB BTBConfig
	// RSBDepth; zero means the 16-entry baseline.
	RSBDepth int
	// Indirect optionally adds a dedicated indirect-target predictor
	// consulted ahead of the BTB mode-two path.
	Indirect IndirectPredictor
}

// NewUnit builds a BPU from the configuration.
func NewUnit(cfg UnitConfig) *Unit {
	m := cfg.Mapper
	if m == nil {
		m = LegacyMapper{}
	}
	d := cfg.Direction
	if d == nil {
		d = NewSKLCond(m)
	}
	b := cfg.BTB
	if b.Sets == 0 {
		b = BaselineBTBConfig()
	}
	depth := cfg.RSBDepth
	if depth == 0 {
		depth = RSBDepth
	}
	return &Unit{
		mapper:   m,
		dir:      d,
		btb:      NewBTB(b),
		rsb:      NewRSB(depth),
		indirect: cfg.Indirect,
	}
}

// Direction returns the conditional predictor.
func (u *Unit) Direction() DirectionPredictor { return u.dir }

// BTB returns the branch target buffer.
func (u *Unit) BTB() *BTB { return u.btb }

// RSB returns the return stack.
func (u *Unit) RSB() *RSB { return u.rsb }

// HistoryRef returns a pointer to the live history registers.
func (u *Unit) HistoryRef() *History { return &u.hist }

// Indirect returns the dedicated indirect predictor, or nil.
func (u *Unit) Indirect() IndirectPredictor { return u.indirect }

// Flush clears all structures (IBPB-style barrier). The direction
// predictor and history registers are reset too.
func (u *Unit) Flush() {
	u.btb.Flush()
	u.rsb.Flush()
	u.hist.Reset()
	u.dir.Flush()
	if u.indirect != nil {
		u.indirect.Flush()
	}
}

// lookupTarget consults the target structures for one branch.
func (u *Unit) lookupTarget(pc uint64, kind trace.Kind) (target uint64, valid, fromRSB, fromMode2 bool) {
	set, tag, offs := u.mapper.BTBIndex(pc)
	if kind == trace.KindReturn {
		if stored, ok := u.rsb.Pop(); ok {
			return ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), true, true, false
		}
		// Underflow: fall back to the indirect predictor (mode two).
		if u.indirect != nil {
			if stored, ok := u.indirect.PredictTarget(pc); ok {
				return ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), true, false, true
			}
		}
		if stored, ok := u.btb.Lookup(set, u.mapper.BTBTagBHB(u.hist.BHB), offs, pc); ok {
			return ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), true, false, true
		}
		return 0, false, false, false
	}
	if kind.IsIndirect() {
		// Dedicated indirect predictor first, then mode two
		// (context-sensitive targets), then mode one.
		if u.indirect != nil {
			if stored, ok := u.indirect.PredictTarget(pc); ok {
				return ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), true, false, true
			}
		}
		if stored, ok := u.btb.Lookup(set, u.mapper.BTBTagBHB(u.hist.BHB), offs, pc); ok {
			return ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), true, false, true
		}
	}
	if stored, ok := u.btb.Lookup(set, tag, offs, pc); ok {
		return ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), true, false, false
	}
	return 0, false, false, false
}

// Predict produces the BPU's prediction for a branch at pc.
func (u *Unit) Predict(pc uint64, kind trace.Kind) Prediction {
	var p Prediction
	switch kind {
	case trace.KindCond:
		p.Taken = u.dir.Predict(pc)
		p.Target, p.TargetValid, p.FromRSB, p.FromMode2 = u.lookupTarget(pc, kind)
	default:
		p.Taken = true
		p.Target, p.TargetValid, p.FromRSB, p.FromMode2 = u.lookupTarget(pc, kind)
	}
	return p
}

// Update resolves a branch: trains every structure with the actual
// outcome and reports the resulting events. pred must be the Prediction
// returned for this record.
func (u *Unit) Update(rec trace.Record, pred Prediction) Events {
	var ev Events
	set, tag, offs := u.mapper.BTBIndex(rec.PC)

	if rec.Kind == trace.KindCond {
		ev.IsCond = true
		ev.DirCorrect = pred.Taken == rec.Taken
		u.dir.Update(rec.PC, rec.Taken)
	}

	if rec.Taken {
		ev.TargetKnown = true
		ev.TargetCorrect = pred.TargetValid && pred.Target == rec.Target
		enc := u.mapper.EncryptTarget(uint32(rec.Target))
		switch {
		case rec.Kind == trace.KindReturn:
			// Returns train the BTB only on the underflow path.
			if !pred.FromRSB && !ev.TargetCorrect {
				ev.BTBEviction = u.btb.Insert(set, u.mapper.BTBTagBHB(u.hist.BHB), offs, rec.PC, enc)
			}
		case rec.Kind.IsIndirect():
			if u.indirect != nil {
				u.indirect.UpdateTarget(rec.PC, enc)
			}
			if !ev.TargetCorrect {
				// The mode-one entry tracks the last target. If it existed
				// but pointed elsewhere, the branch is polymorphic: also
				// allocate a context-tagged mode-two entry so the target
				// can be predicted from the BHB next time this context
				// recurs.
				stored, had := u.btb.Lookup(set, tag, offs, rec.PC)
				ev.BTBEviction = u.btb.Insert(set, tag, offs, rec.PC, enc)
				if had && stored != enc {
					if u.btb.Insert(set, u.mapper.BTBTagBHB(u.hist.BHB), offs, rec.PC, enc) {
						ev.BTBEviction = true
					}
				}
			}
		default:
			if !ev.TargetCorrect {
				ev.BTBEviction = u.btb.Insert(set, tag, offs, rec.PC, enc)
			}
		}
	}

	// Calls push the return address. The BHB advances only on taken
	// direct branches and calls (§II-A: "when a direct branch (or a call)
	// is executed, its virtual address is folded ... into BHB"), so
	// returns and indirect jumps do not disturb the context their own
	// mode-two entries were tagged with.
	if rec.Kind.IsCall() {
		u.rsb.Push(u.mapper.EncryptTarget(uint32(rec.FallThrough())))
	}
	if rec.Taken && rec.Kind != trace.KindReturn && rec.Kind != trace.KindIndirectJump {
		u.hist.PushBranch(rec.PC, rec.Target)
	}
	// The dedicated indirect predictor keeps its own path history,
	// advanced by every retired branch: indirect targets correlate with
	// both the path and the outcome sequence leading to them.
	if u.indirect != nil {
		u.indirect.OnBranch(rec.PC, rec.Target, rec.Taken)
	}

	ev.BTBMiss = rec.Taken && !pred.TargetValid
	dirWrong := ev.IsCond && !ev.DirCorrect
	targetWrong := ev.TargetKnown && !ev.TargetCorrect
	// A not-taken prediction for an actually not-taken conditional needs
	// no target; a taken (or unconditional) branch needs a correct target.
	ev.Mispredict = dirWrong || (targetWrong && (rec.Kind != trace.KindCond || rec.Taken))
	return ev
}
