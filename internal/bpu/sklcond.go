package bpu

// DirectionPredictor is the pluggable conditional-direction component of a
// Unit. Implementations: SKLCond (this package), tage.Predictor, and
// perceptron.Predictor. internal/core builds ST-protected models from the
// same three types by handing them keyed mappers and hashers.
//
// Contract: Update must be called with the same pc immediately after the
// Predict it resolves (the hardware pipeline guarantees this ordering per
// logical branch; the trace simulator preserves it). Implementations may
// stash lookup state between the two calls.
type DirectionPredictor interface {
	// Predict returns the predicted direction for a conditional branch.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved outcome.
	Update(pc uint64, taken bool)
	// Flush clears all predictor state (flushing protections).
	Flush()
}

// Keyed is implemented by direction predictors whose index computations are
// keyed by the STBPU secret token ψ. Re-randomizing the token effectively
// invalidates accumulated state without touching other entities' history.
type Keyed interface {
	// SetKey installs the ψ half of the active secret token.
	SetKey(psi uint32)
}

// SKLCond is the baseline hybrid conditional predictor (§II-A): a single
// 16k-entry PHT of 2-bit counters addressed in two modes — 1-level (address
// only) and 2-level gshare (address ⊕ GHR) — with a per-branch chooser that
// learns which mode predicts better, as in the reverse-engineered Intel
// behaviour the paper generalizes.
type SKLCond struct {
	mapper  Mapper
	pht     *PHT
	chooser *PHT // 2-bit agree counters: >=2 means "use 2-level"
	hist    History

	// last lookup state, consumed by Update.
	lastIdx1, lastIdx2 uint32
	lastChoice         uint32
}

// NewSKLCond builds the baseline conditional predictor over a mapper.
func NewSKLCond(m Mapper) *SKLCond {
	return &SKLCond{
		mapper:  m,
		pht:     NewPHT(PHTSize),
		chooser: NewPHT(PHTSize / 4),
	}
}

var _ DirectionPredictor = (*SKLCond)(nil)

// Predict implements DirectionPredictor.
func (s *SKLCond) Predict(pc uint64) bool {
	s.lastIdx1 = s.mapper.PHT1(pc)
	s.lastIdx2 = s.mapper.PHT2(pc, s.hist.GHR)
	s.lastChoice = s.lastIdx1 & s.chooser.mask
	if s.chooser.Predict(s.lastChoice) {
		return s.pht.Predict(s.lastIdx2)
	}
	return s.pht.Predict(s.lastIdx1)
}

// Update implements DirectionPredictor.
func (s *SKLCond) Update(pc uint64, taken bool) {
	p1 := s.pht.Predict(s.lastIdx1)
	p2 := s.pht.Predict(s.lastIdx2)
	// Train the chooser only when the modes disagree.
	if p1 != p2 {
		s.chooser.Update(s.lastChoice, p2 == taken)
	}
	s.pht.Update(s.lastIdx1, taken)
	if s.lastIdx2 != s.lastIdx1 {
		s.pht.Update(s.lastIdx2, taken)
	}
	s.hist.PushOutcome(taken)
}

// Flush implements DirectionPredictor.
func (s *SKLCond) Flush() {
	s.pht.Flush()
	s.chooser.Flush()
	s.hist.Reset()
}

// DirState is a full snapshot of the conditional-predictor state: the PHT
// counters, the chooser counters, and the history registers. BRB-style
// defenses (internal/defenses) save and restore one per software entity
// across context switches. The zero value represents a cold predictor.
type DirState struct {
	// PHT is the 2-bit counter table contents; nil means cold.
	PHT []uint8
	// Chooser is the mode-chooser table contents; nil means cold.
	Chooser []uint8
	// Hist is the history-register state at switch-out time.
	Hist History
}

// Snapshot captures the complete direction-predictor state.
func (s *SKLCond) Snapshot() DirState {
	return DirState{
		PHT:     s.pht.Snapshot(),
		Chooser: s.chooser.Snapshot(),
		Hist:    s.hist,
	}
}

// Restore installs a previously captured state; the zero value resets the
// predictor to cold (a process with no retained history).
func (s *SKLCond) Restore(st DirState) {
	s.pht.Restore(st.PHT)
	s.chooser.Restore(st.Chooser)
	s.hist = st.Hist
}
