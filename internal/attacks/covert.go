package attacks

// Covert channels through the BPU (§I, [20]): a trojan (sender) and a spy
// (receiver) in different processes communicate through PHT collision
// state, bypassing all software isolation. The channel works exactly like
// the BranchScope side channel, but both ends cooperate, which makes it
// the cleanest way to *quantify* isolation: the measured bit-error rate
// gives the channel capacity directly (1 - H2(p) bits per symbol through
// a binary symmetric channel). STBPU's keyed PHT indexing drives the
// error rate to ~50%, i.e. capacity to ~0.

import (
	"math"

	"stbpu/internal/rng"
)

// CovertResult reports one covert-channel transmission.
type CovertResult struct {
	Model string
	// BitsSent is the message length.
	BitsSent int
	// BitErrors counts receiver bits that differ from the sent bits.
	BitErrors int
	// RecordsUsed is the total branch records both parties executed: the
	// time cost of the transmission.
	RecordsUsed int
	// Rerandomizations observed on STBPU targets.
	Rerandomizations uint64
}

// ErrorRate is the fraction of flipped bits.
func (r CovertResult) ErrorRate() float64 {
	if r.BitsSent == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(r.BitsSent)
}

// CapacityPerSymbol is the binary-symmetric-channel capacity 1 - H2(p) in
// bits per transmitted symbol.
func (r CovertResult) CapacityPerSymbol() float64 {
	p := r.ErrorRate()
	if p <= 0 || p >= 1 {
		return 1
	}
	h := -p*math.Log2(p) - (1-p)*math.Log2(1-p)
	return 1 - h
}

// BandwidthBitsPerKRecord is capacity normalized by execution cost:
// usable bits per thousand branch records.
func (r CovertResult) BandwidthBitsPerKRecord() float64 {
	if r.RecordsUsed == 0 {
		return 0
	}
	return r.CapacityPerSymbol() * float64(r.BitsSent) / float64(r.RecordsUsed) * 1000
}

// PHTCovertChannel transmits nbits pseudo-random bits from a sender
// process to a receiver process through PHT collisions.
//
// Protocol per bit: both parties derive the symbol's branch address from
// a shared seed (entry hopping — a fresh PHT/chooser entry per symbol
// avoids the mode-chooser drift that plagues single-entry channels); the
// sender strongly trains that branch toward the bit value; the receiver
// executes a colliding branch once and reads the first prediction as the
// bit. On the baseline the receiver's probe deterministically aliases the
// sender's entry and the channel is nearly noiseless; under STBPU the two
// processes index disjoint (keyed) entries and the reads come back
// uncorrelated.
func PHTCovertChannel(t *Target, nbits int, seed uint64) CovertResult {
	res := CovertResult{Model: t.Name, BitsSent: nbits}
	r := rng.New(seed)

	const trainReps = 6

	for i := 0; i < nbits; i++ {
		// Shared hop sequence: the symbol's agreed branch address.
		sendPC := victimBase + 0xd000 + r.Uint64n(16384)*4
		bit := r.Bool(0.5)

		// Sender (plays the victim entity) drives the counter hard
		// toward the bit value.
		for rep := 0; rep < trainReps; rep++ {
			t.step(condRec(sendPC, bit, VictimPID))
			res.RecordsUsed++
		}

		// Receiver probes once; its first prediction of the aliasing
		// branch reads the shared counter.
		pred, _ := t.step(condRec(sendPC, false, AttackerPID))
		res.RecordsUsed++
		if pred.Taken != bit {
			res.BitErrors++
		}
	}
	res.Rerandomizations = t.Rerandomizations()
	return res
}

// BlueThunder mounts the 2-level directional-predictor attack of Huo et
// al. [26]: where BranchScope reads the 1-level (address-indexed) PHT
// entry, BlueThunder targets the pattern-history path. The victim's
// secret sits at a specific global-history context; the attacker
// synchronizes the shared GHR by replaying the victim's outcome pattern
// with its own branches, then probes an aliasing branch. Because the
// victim's pattern is unpredictable to the 1-level mode, the shared
// chooser entry is trained toward the 2-level mode, so the attacker's
// probe reads PHT2[hash(pc, GHR)] — the secret.
//
// Under STBPU the PHT2 remap R4 keys both the address and the history
// fold, so the attacker's probe lands on an unrelated entry.
func BlueThunder(t *Target, secretTaken bool, rounds int) Result {
	res := Result{Attack: "bluethunder", Model: t.Name}

	vPC := victimBase + 0xe000
	// The victim's preamble: a fixed outcome pattern that establishes
	// the GHR context g* at which the secret-dependent branch executes.
	preamble := []bool{true, false, true, true, false, false, true, false}
	preamblePCs := func(base uint64) []uint64 {
		pcs := make([]uint64, len(preamble))
		for i := range pcs {
			pcs[i] = base + uint64(i)*0x10
		}
		return pcs
	}

	// Victim training: preamble then secret. The alternation makes the
	// 1-level entry useless and trains the chooser toward 2-level.
	vpcs := preamblePCs(victimBase + 0xe100)
	for round := 0; round < rounds; round++ {
		for i, taken := range preamble {
			t.step(condRec(vpcs[i], taken, VictimPID))
		}
		t.step(condRec(vPC, secretTaken, VictimPID))
		// A contrasting context: same branch, different history, other
		// direction — the 1-level counter oscillates, the 2-level
		// entries separate.
		for i, taken := range preamble {
			t.step(condRec(vpcs[i], !taken, VictimPID))
		}
		t.step(condRec(vPC, !secretTaken, VictimPID))
	}

	// Attacker: replay the victim's preamble outcome pattern with its
	// own branches (the GHR records outcomes, not addresses), then probe
	// the aliasing branch once at context g*.
	apcs := preamblePCs(attackerBase + 0xe900)
	for i, taken := range preamble {
		_, ev := t.step(condRec(apcs[i], taken, AttackerPID))
		if ev.Mispredict() {
			res.AttackerMispredicts++
		}
		res.Trials++
	}
	pred, _ := t.step(condRec(vPC, false, AttackerPID))
	res.Trials++

	res.Leak = "not-taken"
	if pred.Taken {
		res.Leak = "taken"
	}
	res.Succeeded = pred.Taken == secretTaken
	res.Rerandomizations = t.Rerandomizations()
	return res
}

// DoSReuse mounts the second §VI-A.6 denial-of-service scenario: the
// attacker fills the BTB with bogus targets for the victim's hot indirect
// branch, hoping the victim speculates to a wrong address every iteration
// and pays the recovery cost. It returns the victim's misprediction count
// over `rounds` executions of its hot branch.
//
// On the baseline the attacker plants the entry at the victim's own
// (deterministically mapped) slot. Under STBPU the plant lands in an
// unrelated keyed slot — and even a chance collision decrypts to garbage
// under the victim's φ, which the victim discards as an invalid target.
func DoSReuse(t *Target, rounds int) Result {
	res := Result{Attack: "dos-reuse", Model: t.Name}

	vPC := victimBase + 0xf000
	legit := victimBase + 0xf400

	victimMisp := 0
	for round := 0; round < rounds; round++ {
		res.Trials++
		// Attacker re-plants a bogus target for the victim's branch
		// address (reachable from its own space on the baseline's
		// truncated mapping).
		bogus := attackerBase + 0xf800 + uint64(round)*0x40
		_, ev := t.step(ijmp(vPC, bogus, AttackerPID))
		if ev.Mispredict() {
			res.AttackerMispredicts++
		}
		if ev.BTBEviction() {
			res.Evictions++
		}

		// Victim executes its hot branch toward the legitimate target.
		_, vev := t.step(ijmp(vPC, legit, VictimPID))
		if vev.Mispredict() {
			victimMisp++
		}
	}
	// The DoS "succeeds" if the attacker keeps the victim's branch
	// mispredicting in most rounds (chronic slowdown).
	res.Succeeded = victimMisp > rounds*3/4
	if res.Succeeded {
		res.Leak = "victim slowed by chronic target poisoning"
	}
	res.Rerandomizations = t.Rerandomizations()
	return res
}
