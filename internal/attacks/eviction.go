package attacks

import "stbpu/internal/trace"

// Eviction-based attacks (Table I, columns EB-HE and EB-AE): the attacker
// primes BTB sets with its own branches and detects the victim's execution
// by observing which of its entries got displaced.

// evictionTest reports whether executing the candidate set evicts branch
// x's entry — the attacker-side primitive GEM is built on. All branches
// belong to the attacker; observation is x's re-execution misprediction.
func evictionTest(t *Target, x uint64, set []uint64, res *Result) bool {
	// Install x.
	recX := jmp(x, x+0x40, AttackerPID)
	_, ev := t.step(recX)
	if ev.Mispredict() {
		res.AttackerMispredicts++
	}
	if ev.BTBEviction() {
		res.Evictions++
	}
	// Touch every candidate.
	for _, pc := range set {
		_, ev := t.step(jmp(pc, pc+0x40, AttackerPID))
		if ev.Mispredict() {
			res.AttackerMispredicts++
		}
		if ev.BTBEviction() {
			res.Evictions++
		}
	}
	// Re-probe x: a target miss means it was evicted.
	pred, ev := t.step(recX)
	if ev.Mispredict() {
		res.AttackerMispredicts++
	}
	if ev.BTBEviction() {
		res.Evictions++
	}
	return !pred.TargetValid
}

// BuildEvictionSetGEM runs the group-elimination method (GEM, [59]) to
// reduce a candidate pool to a minimal eviction set for probe branch x:
// repeatedly split the candidates into ways+1 groups and drop any group
// whose removal preserves the eviction property. Returns the reduced set
// (nil if the pool never evicted x within the budget).
func BuildEvictionSetGEM(t *Target, x uint64, pool []uint64, ways int, res *Result) []uint64 {
	cand := make([]uint64, len(pool))
	copy(cand, pool)
	if !evictionTest(t, x, cand, res) {
		return nil
	}
	for len(cand) > ways && res.Trials < 1_000_000 {
		res.Trials++
		groups := ways + 1
		reduced := false
		for g := 0; g < groups && len(cand) > ways; g++ {
			// Even split into exactly ways+1 groups (sizes differ by at
			// most one): with only `ways` conflicting members, the
			// pigeonhole principle guarantees one group is removable.
			lo := g * len(cand) / groups
			hi := (g + 1) * len(cand) / groups
			if lo == hi {
				continue
			}
			trial := make([]uint64, 0, len(cand)-(hi-lo))
			trial = append(trial, cand[:lo]...)
			trial = append(trial, cand[hi:]...)
			if evictionTest(t, x, trial, res) {
				cand = trial
				reduced = true
				break
			}
		}
		if !reduced {
			break
		}
	}
	return cand
}

// EvictionSetAttack mounts the EB attack: construct an eviction set, prime
// it, run the victim, and detect the victim's branch execution through a
// displaced attacker entry.
//
// On the baseline the set index is a pure function of the address, so the
// attacker writes down ways same-set addresses directly. Under STBPU it
// must run GEM over a large pool, paying evictions that the threshold
// monitor counts; and any set it finds dies with the next
// re-randomization.
func EvictionSetAttack(t *Target, poolSize int) Result {
	res := Result{Attack: "btb-eviction-side-channel", Model: t.Name}

	vPC := victimBase + 0x5000
	victim := jmp(vPC, vPC+0x200, VictimPID)

	var evictionSet []uint64
	if t.Name == "baseline" {
		// Deterministic construction: same set bits (pc>>5), different
		// tag bits (pc>>14).
		for i := 0; i < 8; i++ {
			evictionSet = append(evictionSet, attackerBase+(vPC&0x3fe0)+uint64(i+1)<<14)
		}
	} else {
		// Blind pool → GEM.
		pool := make([]uint64, poolSize)
		for i := range pool {
			pool[i] = attackerBase + uint64(i)*32
		}
		probe := attackerBase + 0x7fff000
		evictionSet = BuildEvictionSetGEM(t, probe, pool, 8, &res)
		if evictionSet == nil {
			res.Rerandomizations = t.Rerandomizations()
			return res
		}
		// Note: the GEM set evicts the attacker's own probe; targeting
		// the *victim's* set additionally requires covering I/2 sets
		// (§VI-A.4). We test whether this one primed set detects the
		// victim at all.
	}

	// Prime: install all eviction-set entries.
	for _, pc := range evictionSet {
		_, ev := t.step(jmp(pc, pc+0x40, AttackerPID))
		if ev.Mispredict() {
			res.AttackerMispredicts++
		}
		if ev.BTBEviction() {
			res.Evictions++
		}
	}
	// Victim runs.
	t.step(victim)
	// Probe: any primed entry missing ⇒ the victim hit this set.
	for _, pc := range evictionSet {
		res.Trials++
		pred, ev := t.step(jmp(pc, pc+0x40, AttackerPID))
		if ev.Mispredict() {
			res.AttackerMispredicts++
		}
		if ev.BTBEviction() {
			res.Evictions++
		}
		if !pred.TargetValid {
			res.Succeeded = true
			res.Leak = "victim execution detected via eviction"
			break
		}
	}
	res.Rerandomizations = t.Rerandomizations()
	return res
}

// RSBOverflowDoS mounts the EB-AE RSB attack: the attacker overflows the
// shared return stack with its own calls so the victim's returns fall back
// to static prediction (Table I). Success is measured as victim return
// mispredictions caused.
func RSBOverflowDoS(t *Target, depth int) Result {
	res := Result{Attack: "rsb-overflow", Model: t.Name}

	// Victim builds a healthy call stack.
	vCall := victimBase + 0x6000
	vFn := victimBase + 0x6800
	for i := 0; i < 4; i++ {
		t.step(callRec(vCall+uint64(i)*8, vFn+uint64(i)*0x100, VictimPID))
	}
	// Attacker floods the RSB.
	for i := 0; i < depth; i++ {
		res.Trials++
		t.step(callRec(attackerBase+uint64(i)*8, attackerBase+0x8000+uint64(i)*0x40, AttackerPID))
	}
	// Victim unwinds; with the RSB overflowed its return addresses are
	// gone (or, under STBPU, decrypt to garbage).
	misp := 0
	for i := 3; i >= 0; i-- {
		ret := retRec(vFn+uint64(i)*0x100+0x3c, vCall+uint64(i)*8+4, VictimPID)
		_, ev := t.step(ret)
		if ev.Mispredict() {
			misp++
		}
	}
	res.Succeeded = misp > 0
	if res.Succeeded {
		res.Leak = "victim returns forced to mispredict"
	}
	res.Rerandomizations = t.Rerandomizations()
	return res
}

var _ = trace.KindReturn // keep the import for the record helpers' types
