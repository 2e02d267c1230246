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
// accounting, IPC modelling, and STBPU's threshold monitoring. It is a
// bit set, one bit per event, because the replay loops resolve every
// branch of every trace through it: one byte comes back from Resolve in
// a register, and Counters.Note folds the bits into its counts without
// a branch. A struct of seven bools would be written byte by byte and
// reloaded as a word, a store-forwarding stall on every branch.
type Events uint8

// Bit positions of the Events flags, in the order Counters.Note reads
// them.
const (
	evCond = iota
	evDirCorrect
	evTargetKnown
	evTargetCorrect
	evMispredict
	evBTBEviction
	evBTBMiss
)

// The Events flags; each has an accessor of the same name without the
// Ev prefix (IsCond for EvCond).
const (
	// EvCond marks conditional branches (direction accounting).
	EvCond Events = 1 << evCond
	// EvDirCorrect is the direction outcome for conditional branches.
	EvDirCorrect Events = 1 << evDirCorrect
	// EvTargetKnown marks branches whose taken target needed prediction
	// (all taken branches).
	EvTargetKnown Events = 1 << evTargetKnown
	// EvTargetCorrect is the target outcome among EvTargetKnown branches.
	EvTargetCorrect Events = 1 << evTargetCorrect
	// EvMispredict is the overall effective outcome: wrong direction or
	// wrong/missing target of a taken branch (OAE counts a branch correct
	// only if every necessary prediction was correct, §VII-B1).
	EvMispredict Events = 1 << evMispredict
	// EvBTBEviction reports that updating the BTB displaced a valid entry.
	EvBTBEviction Events = 1 << evBTBEviction
	// EvBTBMiss reports that the lookup missed every target structure.
	EvBTBMiss Events = 1 << evBTBMiss
)

// IsCond reports EvCond.
func (e Events) IsCond() bool { return e&EvCond != 0 }

// DirCorrect reports EvDirCorrect.
func (e Events) DirCorrect() bool { return e&EvDirCorrect != 0 }

// TargetKnown reports EvTargetKnown.
func (e Events) TargetKnown() bool { return e&EvTargetKnown != 0 }

// TargetCorrect reports EvTargetCorrect.
func (e Events) TargetCorrect() bool { return e&EvTargetCorrect != 0 }

// Mispredict reports EvMispredict.
func (e Events) Mispredict() bool { return e&EvMispredict != 0 }

// BTBEviction reports EvBTBEviction.
func (e Events) BTBEviction() bool { return e&EvBTBEviction != 0 }

// BTBMiss reports EvBTBMiss.
func (e Events) BTBMiss() bool { return e&EvBTBMiss != 0 }

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

// targetSource says which structure served a prediction's target.
type targetSource uint8

const (
	// fromNone: every target structure missed.
	fromNone targetSource = iota
	// fromBTB: the BTB's mode-one (address-tagged) path.
	fromBTB
	// fromMode2: the dedicated indirect predictor or the BTB's BHB-tagged
	// path.
	fromMode2
	// fromRSB: the return stack.
	fromRSB
)

// Resolve predicts and resolves one branch in one call. It returns what
// Update(rec, Predict(pc, kind)) returns for the record (pc, target,
// kind, taken) and leaves the unit in the same state, but computes the
// mode-one BTB set/tag/offset once and hands the prediction to the
// update half as scalars, so the replay loops, which need only the
// events, pay for neither a second index nor a Prediction through
// memory. TestResolveMatchesPredictUpdate (internal/core) pins the two
// paths to each other.
func (u *Unit) Resolve(pc, target uint64, kind trace.Kind, taken bool) Events {
	set, tag, offs := u.mapper.BTBIndex(pc)
	predTaken, predTarget, src := u.predict(pc, kind, set, tag, offs)
	ev := score(kind, taken, target, predTaken, src != fromNone, predTarget)
	return u.update(pc, target, kind, set, tag, offs, ev, src == fromRSB)
}

// Predict produces the BPU's prediction for a branch at pc.
func (u *Unit) Predict(pc uint64, kind trace.Kind) Prediction {
	set, tag, offs := u.mapper.BTBIndex(pc)
	taken, target, src := u.predict(pc, kind, set, tag, offs)
	return Prediction{
		Taken:       taken,
		Target:      target,
		TargetValid: src != fromNone,
		FromRSB:     src == fromRSB,
		FromMode2:   src == fromMode2,
	}
}

// Update resolves a branch: trains every structure with the actual
// outcome and reports the resulting events. pred must be the Prediction
// returned for this record.
func (u *Unit) Update(rec trace.Record, pred Prediction) Events {
	set, tag, offs := u.mapper.BTBIndex(rec.PC)
	ev := score(rec.Kind, rec.Taken, rec.Target, pred.Taken, pred.TargetValid, pred.Target)
	return u.update(rec.PC, rec.Target, rec.Kind, set, tag, offs, ev, pred.FromRSB)
}

// predict is the predict half of Resolve and Predict: the direction,
// then the target structures in priority order, for a branch whose
// mode-one BTB fields are set/tag/offs.
func (u *Unit) predict(pc uint64, kind trace.Kind, set, tag, offs uint32) (taken bool, target uint64, src targetSource) {
	taken = true
	if kind == trace.KindCond {
		taken = u.dir.Predict(pc)
	}
	if kind == trace.KindReturn {
		if stored, ok := u.rsb.Pop(); ok {
			return taken, ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), fromRSB
		}
		// Underflow: fall back to the indirect predictor (mode two).
		if u.indirect != nil {
			if stored, ok := u.indirect.PredictTarget(pc); ok {
				return taken, ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), fromMode2
			}
		}
		if stored, ok := u.btb.Lookup(set, u.mapper.BTBTagBHB(u.hist.BHB), offs, pc); ok {
			return taken, ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), fromMode2
		}
		return taken, 0, fromNone
	}
	if kind.IsIndirect() {
		// Dedicated indirect predictor first, then mode two
		// (context-sensitive targets), then mode one.
		if u.indirect != nil {
			if stored, ok := u.indirect.PredictTarget(pc); ok {
				return taken, ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), fromMode2
			}
		}
		if stored, ok := u.btb.Lookup(set, u.mapper.BTBTagBHB(u.hist.BHB), offs, pc); ok {
			return taken, ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), fromMode2
		}
	}
	if stored, ok := u.btb.Lookup(set, tag, offs, pc); ok {
		return taken, ReconstructTarget(pc, u.mapper.DecryptTarget(stored)), fromBTB
	}
	return taken, 0, fromNone
}

// score grades a prediction against the actual outcome: every Events
// bit except EvBTBEviction, which only training can report.
func score(kind trace.Kind, taken bool, target uint64, predTaken, predValid bool, predTarget uint64) Events {
	var ev Events
	if kind == trace.KindCond {
		ev |= EvCond
		if predTaken == taken {
			ev |= EvDirCorrect
		} else {
			ev |= EvMispredict
		}
	}
	if taken {
		// A not-taken prediction for an actually not-taken conditional
		// needs no target; a taken (or unconditional) branch needs a
		// correct one.
		ev |= EvTargetKnown
		if predValid && predTarget == target {
			ev |= EvTargetCorrect
		} else {
			ev |= EvMispredict
		}
		if !predValid {
			ev |= EvBTBMiss
		}
	}
	return ev
}

// update is the update half of Resolve and Update: it trains every
// structure with the actual outcome of the branch at pc, whose mode-one
// BTB fields are set/tag/offs, and returns ev, as scored by score, with
// EvBTBEviction added when training displaced a valid entry. The branch
// was taken exactly when ev has EvTargetKnown, and fromRSB reports that
// the return stack served its prediction. The receiver and these eight
// arguments fill Go's nine integer argument registers; a tenth word
// would go through the stack.
func (u *Unit) update(pc, target uint64, kind trace.Kind, set, tag, offs uint32, ev Events, fromRSB bool) Events {
	taken := ev.TargetKnown()
	if kind == trace.KindCond {
		u.dir.Update(pc, taken)
	}

	if taken {
		enc := u.mapper.EncryptTarget(uint32(target))
		switch {
		case kind == trace.KindReturn:
			// Returns train the BTB only on the underflow path.
			if !fromRSB && !ev.TargetCorrect() &&
				u.btb.Insert(set, u.mapper.BTBTagBHB(u.hist.BHB), offs, pc, enc) {
				ev |= EvBTBEviction
			}
		case kind.IsIndirect():
			if u.indirect != nil {
				u.indirect.UpdateTarget(pc, enc)
			}
			if !ev.TargetCorrect() {
				// The mode-one entry tracks the last target. If it existed
				// but pointed elsewhere, the branch is polymorphic: also
				// allocate a context-tagged mode-two entry so the target
				// can be predicted from the BHB next time this context
				// recurs.
				stored, had := u.btb.Lookup(set, tag, offs, pc)
				if u.btb.Insert(set, tag, offs, pc, enc) {
					ev |= EvBTBEviction
				}
				if had && stored != enc &&
					u.btb.Insert(set, u.mapper.BTBTagBHB(u.hist.BHB), offs, pc, enc) {
					ev |= EvBTBEviction
				}
			}
		default:
			if !ev.TargetCorrect() && u.btb.Insert(set, tag, offs, pc, enc) {
				ev |= EvBTBEviction
			}
		}
	}

	// Calls push the return address. The BHB advances only on taken
	// direct branches and calls (§II-A: "when a direct branch (or a call)
	// is executed, its virtual address is folded ... into BHB"), so
	// returns and indirect jumps do not disturb the context their own
	// mode-two entries were tagged with.
	if kind.IsCall() {
		u.rsb.Push(u.mapper.EncryptTarget(uint32(trace.Record{PC: pc}.FallThrough())))
	}
	if taken && kind != trace.KindReturn && kind != trace.KindIndirectJump {
		u.hist.PushBranch(pc, target)
	}
	// The dedicated indirect predictor keeps its own path history,
	// advanced by every retired branch: indirect targets correlate with
	// both the path and the outcome sequence leading to them.
	if u.indirect != nil {
		u.indirect.OnBranch(pc, target, taken)
	}
	return ev
}
