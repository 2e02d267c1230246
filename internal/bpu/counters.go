package bpu

// Counters accumulates resolution events across a batch of retired
// branches. The columnar replay loops fold each branch's Events into
// one accumulator per model (per thread in an SMT replay), so a run's
// counts are ready when its last chunk ends.
type Counters struct {
	// Mispredicts counts overall effective mispredictions (OAE numerator).
	Mispredicts uint64
	// Conds and DirCorrect count conditional branches and correct
	// directions among them.
	Conds      uint64
	DirCorrect uint64
	// TargetKnown and TargetCorrect count branches whose target needed
	// prediction and correct targets among them.
	TargetKnown   uint64
	TargetCorrect uint64
	// Evictions counts BTB insertions that displaced a valid entry.
	Evictions uint64
	// BTBMisses counts taken branches that missed every target structure.
	BTBMisses uint64
}

// Note folds one branch resolution into the counters. It adds each
// flag's bit instead of testing it, so the replay loop takes no branch
// here. DirCorrect counts only among conditional branches and
// TargetCorrect only among target-known ones, as the field comments say.
func (c *Counters) Note(ev Events) {
	e := uint64(ev)
	c.Mispredicts += e >> evMispredict & 1
	c.Conds += e >> evCond & 1
	c.DirCorrect += e >> evCond & (e >> evDirCorrect) & 1
	c.TargetKnown += e >> evTargetKnown & 1
	c.TargetCorrect += e >> evTargetKnown & (e >> evTargetCorrect) & 1
	c.Evictions += e >> evBTBEviction & 1
	c.BTBMisses += e >> evBTBMiss & 1
}
