package attacks

// PPP implements the Prime+Prune+Probe eviction-set construction (Purnal
// et al., S&P 2021), the bottom-up alternative to GEM. The paper argues
// (§VI-A.4) that PPP is less efficient than GEM against STBPU because the
// BTB is not a partitioned randomized structure: PPP's pruning step relies
// on a stable, self-consistent mapping, which STBPU's re-randomization
// keeps destroying, and its incremental accumulation wastes accesses when
// candidate sets must be rebuilt from scratch.
//
// Algorithm:
//
//	prime:  access a candidate set C (install all entries)
//	prune:  re-access C repeatedly, dropping members that miss (they were
//	        evicted by set conflicts inside C) until C is self-consistent
//	probe:  access the target x, then re-access C; the members that now
//	        miss are congruent with x — accumulate them
//
// BuildEvictionSetPPP returns the accumulated congruent set once it can
// evict x (size ≥ ways), or nil if the budget is exhausted first.
func BuildEvictionSetPPP(t *Target, x uint64, pool []uint64, ways, maxRounds int, res *Result) []uint64 {
	touch := func(pc uint64) (hit bool) {
		pred, ev := t.step(jmp(pc, pc+0x40, AttackerPID))
		if ev.Mispredict() {
			res.AttackerMispredicts++
		}
		if ev.BTBEviction() {
			res.Evictions++
		}
		return pred.TargetValid
	}

	var congruent []uint64
	poolPos := 0
	// The prime set must be large enough to pressure every BTB set past
	// its associativity, or priming causes no evictions at all; PPP
	// papers size it near the structure's capacity.
	batch := 4096
	if batch > len(pool) {
		batch = len(pool)
	}

	for round := 0; round < maxRounds; round++ {
		res.Trials++
		// Take the next candidate batch.
		if poolPos >= len(pool) {
			poolPos = 0
		}
		end := poolPos + batch
		if end > len(pool) {
			end = len(pool)
		}
		cand := append([]uint64(nil), pool[poolPos:end]...)
		poolPos = end

		// Prime.
		for _, pc := range cand {
			touch(pc)
		}
		// Prune to self-consistency (bounded passes).
		for pass := 0; pass < 8; pass++ {
			var kept []uint64
			evictedAny := false
			for _, pc := range cand {
				if touch(pc) {
					kept = append(kept, pc)
				} else {
					evictedAny = true
					touch(pc) // reinstall for the next pass
				}
			}
			cand = kept
			if !evictedAny {
				break
			}
		}
		// Probe: install x, then find which candidates x displaced.
		touch(x)
		for _, pc := range cand {
			if !touch(pc) {
				congruent = append(congruent, pc)
			}
		}
		// Enough congruent members to evict x?
		if len(congruent) >= ways {
			set := append([]uint64(nil), congruent[len(congruent)-ways:]...)
			if evictionTest(t, x, set, res) {
				return set
			}
		}
	}
	return nil
}
