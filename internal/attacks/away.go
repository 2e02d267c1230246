package attacks

// Away-effect reuse attacks (Table I, column RB-AE): the adversarial
// effect lands in the *victim's* execution — the attacker plants predictor
// state and the victim consumes it.

// PHTAwayEffect mounts the RB-AE PHT attack: the attacker trains a
// colliding counter to not-taken so the victim's taken branch mispredicts
// and speculatively executes its fall-through (Table I: "V speculatively
// executes s + 1"). Success: the attacker's planted state flips the
// victim's first prediction.
func PHTAwayEffect(t *Target, maxProbes int) Result {
	res := Result{Attack: "pht-away-effect", Model: t.Name}

	vPC := victimBase + 0xa000

	for probe := 0; probe < maxProbes; probe++ {
		res.Trials++
		// The attacker saturates an (aliasing, on baseline) counter to
		// strongly taken. Probe 0 aliases the victim address exactly.
		pc := vPC + uint64(probe)*4
		for i := 0; i < 4; i++ {
			_, ev := t.step(condRec(pc, true, AttackerPID))
			if ev.Mispredict() {
				res.AttackerMispredicts++
			}
		}
		// A fresh victim branch that is actually not-taken: with an
		// unbiased PHT it predicts not-taken (init weakly not-taken);
		// if it predicts taken, the attacker's planted state controls
		// the victim's speculation.
		vRec := condRec(vPC, false, VictimPID)
		pred, _ := t.step(vRec)
		if pred.Taken {
			res.Succeeded = true
			res.Leak = "victim mispredicts along attacker-chosen path"
			break
		}
	}
	res.Rerandomizations = t.Rerandomizations()
	return res
}

// BTBAwayEffect mounts the RB-AE BTB attack: the attacker installs a
// target for an alias of the victim's *direct* branch; the victim's first
// execution then speculates to the attacker's stored (possibly decrypted-
// to-garbage) target instead of falling through un-predicted.
func BTBAwayEffect(t *Target, maxProbes int) Result {
	res := Result{Attack: "btb-away-effect", Model: t.Name}

	vPC := victimBase + 0xb000
	planted := attackerBase + 0xb800

	for probe := 0; probe < maxProbes; probe++ {
		res.Trials++
		pc := vPC + uint64(probe)*16
		atk := jmp(pc, planted, AttackerPID)
		_, ev := t.step(atk)
		if ev.Mispredict() {
			res.AttackerMispredicts++
		}
		if ev.BTBEviction() {
			res.Evictions++
		}
		// Victim executes its own (fresh) branch at vPC.
		vRec := jmp(vPC, victimBase+0xb400, VictimPID)
		pred, _ := t.step(vRec)
		if pred.TargetValid && uint32(pred.Target) == uint32(planted) {
			res.Succeeded = true
			res.Leak = "victim speculates to attacker-planted target"
			break
		}
	}
	res.Rerandomizations = t.Rerandomizations()
	return res
}

// RSBReuseHomeEffect mounts the RB-HE RSB attack of Table I: the victim's
// call pushes a return address; the attacker's return consumes it and
// observes the misprediction, learning the victim's call-site address
// (low 32 bits).
func RSBReuseHomeEffect(t *Target) Result {
	res := Result{Attack: "rsb-reuse-home", Model: t.Name}

	vCall := victimBase + 0xc000
	t.step(callRec(vCall, victimBase+0xc800, VictimPID))

	// The attacker returns without having called; the RSB serves the
	// victim's pushed (possibly encrypted) address.
	res.Trials = 1
	pred, _ := t.step(retRec(attackerBase+0xc03c, attackerBase+0xc040, AttackerPID))
	if pred.FromRSB && uint32(pred.Target) == uint32(vCall+4) {
		res.Succeeded = true
		res.Leak = "victim call-site address recovered from RSB"
	}
	res.Rerandomizations = t.Rerandomizations()
	return res
}
