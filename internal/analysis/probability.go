package analysis

// probability.go extends the closed-form analysis with the probabilistic
// side of §VI/§VII-A: how attack success probability accumulates with
// spent events, what a re-randomization threshold Γ = r·C buys per token
// epoch, and the DoS eviction-pressure model of §VI-A.6. These are the
// curves behind the paper's claim that r = 0.05 "offers strong security
// guarantees with a low impact on performance".

import "math"

// SuccessProbability is the chance an attack with 50%-complexity C
// succeeds within the given event budget. Attack trials are independent
// Bernoulli events, so P(n) = 1 − (1 − p)ⁿ with p chosen such that
// P(C) = 0.5, i.e. p = 1 − 2^(−1/C).
func SuccessProbability(events, c float64) float64 {
	if c <= 0 || events <= 0 {
		return 0
	}
	p := 1 - math.Exp2(-1/c)
	return -math.Expm1(float64(events) * math.Log1p(-p))
}

// EpochSuccessProbability is the attack success probability within one
// token epoch when the threshold is Γ = r·C: the attacker is cut off
// after r·C events, so P = 1 − 2^(−r). For the paper's r = 0.05 this is
// ≈ 3.4%: no attack reaches a coin-flip chance before its partial
// knowledge is destroyed.
func EpochSuccessProbability(r float64) float64 {
	if r <= 0 {
		return 0
	}
	return -math.Expm1(r * math.Log(0.5))
}

// MultiEpochSuccessProbability is the chance at least one of k epochs
// succeeds. Epochs are independent — re-randomization resets the
// attacker's knowledge, so probability does NOT accumulate within the
// search space, only across independent retries:
// P(k) = 1 − (1 − P_epoch)ᵏ.
func MultiEpochSuccessProbability(r float64, epochs int) float64 {
	if epochs <= 0 {
		return 0
	}
	pe := EpochSuccessProbability(r)
	return -math.Expm1(float64(epochs) * math.Log1p(-pe))
}

// ExpectedEventsToSuccess is the expected total monitored events an
// attacker spends before its first success under re-randomization with
// threshold Γ = r·C: each epoch costs Γ events and succeeds with
// probability P_epoch, a geometric process costing Γ / P_epoch → C/ln2 ≈
// 1.44·C as r → 0. Re-randomization therefore does not merely delay the
// attack — it removes the attacker's ability to make *progress*: the
// expected event cost stays a constant factor above the unprotected
// search no matter how small r is, while per-epoch success stays bounded
// by ≈ r·ln2 and every epoch boundary is an observable re-randomization
// the OS can alert on.
func ExpectedEventsToSuccess(r, c float64) float64 {
	pe := EpochSuccessProbability(r)
	if pe <= 0 {
		return math.Inf(1)
	}
	return r * c / pe
}

// BirthdayCollisionProb is the probability that n uniformly mapped items
// include at least one pairwise collision in a space of the given size —
// the bound the paper uses for self-collisions inside the attacker's
// probe set SB.
func BirthdayCollisionProb(n float64, space float64) float64 {
	if space <= 0 || n <= 1 {
		return 0
	}
	// 1 − exp(−n(n−1)/(2·space)), the standard approximation.
	return -math.Expm1(-n * (n - 1) / (2 * space))
}

// DoSEvictionProb is the §VI-A.6 eviction-based DoS model for a
// set-associative LRU structure: a blind spray of n branches evicts a
// specific victim entry only once the victim's set has filled — the
// victim (oldest in its set) falls to the W-th spray insert landing
// there. Spray placement over I sets is uniform under keyed remapping,
// so the count in the victim's set is ≈ Poisson(n/I) and
// P(evicted) = P(X ≥ W) = 1 − CDF_Poisson(W−1; n/I).
//
// (The memoryless 1 − (1−1/(I·W))ⁿ form over-estimates markedly: most
// sprays land in non-full sets and evict nothing. The set-associative
// form below matches the measured behaviour of the simulated BTB —
// validated in internal/attacks TestDoSEvictionProbMatchesAnalysis.)
func DoSEvictionProb(p StructParams, sprays float64) float64 {
	if sprays <= 0 {
		return 0
	}
	lambda := sprays / p.Sets
	w := int(p.Ways)
	// P(X <= w-1) for X ~ Poisson(lambda), computed in log space for
	// numerical stability at large lambda.
	cdf := 0.0
	logTerm := -lambda // log of e^-λ λ^0 / 0!
	for k := 0; k < w; k++ {
		if k > 0 {
			logTerm += math.Log(lambda) - math.Log(float64(k))
		}
		cdf += math.Exp(logTerm)
	}
	if cdf > 1 {
		cdf = 1
	}
	return 1 - cdf
}

// DoSSpraysForProb inverts DoSEvictionProb numerically: the blind-spray
// budget needed to evict a specific victim entry with probability target.
func DoSSpraysForProb(p StructParams, target float64) float64 {
	if target <= 0 {
		return 0
	}
	if target >= 1 {
		return math.Inf(1)
	}
	lo, hi := 0.0, p.Sets*p.Ways
	for DoSEvictionProb(p, hi) < target {
		hi *= 2
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if DoSEvictionProb(p, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// GammaSweepRow is one row of the threshold sweep: the security side of
// Fig. 6 (the performance side is the fig6 scenario).
type GammaSweepRow struct {
	// R is the attack difficulty factor.
	R float64
	// MispThreshold and EvictThreshold are Γ = r·C for the two counters.
	MispThreshold, EvictThreshold float64
	// EpochSuccess is the per-epoch attack success probability.
	EpochSuccess float64
	// EpochsFor50 is the number of token epochs an attacker must grind
	// through for a 50% overall chance — the attack's wall-clock scale,
	// growing as 1/r while the total *event* cost stays ≈ C/ln2.
	EpochsFor50 float64
}

// GammaSweep evaluates the security consequences of lowering r — the
// quantitative argument for §VII-B3's "thresholds can be safely reduced".
func GammaSweep(rs []float64) []GammaSweepRow {
	rows := make([]GammaSweepRow, 0, len(rs))
	for _, r := range rs {
		m, e := Thresholds(r)
		rows = append(rows, GammaSweepRow{
			R:              r,
			MispThreshold:  m,
			EvictThreshold: e,
			EpochSuccess:   EpochSuccessProbability(r),
			EpochsFor50:    EpochsForProbability(r, 0.5),
		})
	}
	return rows
}

// EpochsForProbability is the number of independent token epochs needed
// for the attacker's overall success probability to reach target.
func EpochsForProbability(r, target float64) float64 {
	pe := EpochSuccessProbability(r)
	if pe <= 0 {
		return math.Inf(1)
	}
	if target >= 1 {
		return math.Inf(1)
	}
	if target <= 0 {
		return 0
	}
	return math.Log1p(-target) / math.Log1p(-pe)
}
