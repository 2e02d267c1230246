package attacks

import (
	"testing"

	"stbpu/internal/bpu"
	"stbpu/internal/core"
	"stbpu/internal/token"
)

// Table I coverage: every reuse/eviction × home/away cell has a driver
// exercised below against both the baseline and STBPU.

func TestBTBReuseBaselineLeaksImmediately(t *testing.T) {
	res := BTBReuseSideChannel(NewBaselineTarget(), 1000)
	if !res.Succeeded {
		t.Fatal("baseline BTB reuse side channel should succeed")
	}
	if res.Trials != 1 {
		t.Errorf("baseline collision should be deterministic (1 trial), got %d", res.Trials)
	}
}

func TestBTBReuseSTBPUBlocked(t *testing.T) {
	res := BTBReuseSideChannel(NewSTBPUTarget(nil), 100_000)
	if res.Succeeded {
		t.Fatalf("STBPU leaked within %d probes (expected P≈2^-22 per probe)", res.Trials)
	}
	if res.AttackerMispredicts < uint64(res.Trials)/2 {
		t.Errorf("attack should burn mispredictions: %d over %d trials",
			res.AttackerMispredicts, res.Trials)
	}
	// The probing spree must have tripped the threshold monitors well
	// before the analytic 50% point (2^21 probes).
	if res.Rerandomizations == 0 {
		t.Error("no re-randomization despite a 100k-probe scan")
	}
}

func TestBranchScopeBaselineReadsDirection(t *testing.T) {
	for _, secret := range []bool{true, false} {
		res := BranchScope(NewBaselineTarget(), secret, 1000)
		if !res.Succeeded {
			t.Errorf("baseline BranchScope failed for secret=%v", secret)
		}
		want := "not-taken"
		if secret {
			want = "taken"
		}
		if res.Leak != want {
			t.Errorf("leak = %q, want %q", res.Leak, want)
		}
		if secret && res.Trials != 1 {
			t.Errorf("baseline alias should read the counter in 1 trial, got %d", res.Trials)
		}
	}
}

func TestBranchScopeSTBPUNotDeterministic(t *testing.T) {
	// Under STBPU the one-shot aliasing read is gone: the attacker needs
	// a blind scan (and a reliable channel needs the full §VI SB
	// construction costing ~8.38e5 monitored events).
	res := BranchScope(NewSTBPUTarget(nil), true, 50_000)
	if res.Trials <= 10 {
		t.Errorf("STBPU BranchScope read a counter in %d trials; the one-shot aliasing read should be gone", res.Trials)
	}
}

func TestSameAddressSpaceBaselineCollides(t *testing.T) {
	res := SameAddressSpaceCollision(NewBaselineTarget(), 16)
	if !res.Succeeded || res.Trials != 1 {
		t.Errorf("baseline 2^32-alias should collide on trial 1: %+v", res)
	}
}

func TestSameAddressSpaceSTBPUBlocked(t *testing.T) {
	res := SameAddressSpaceCollision(NewSTBPUTarget(nil), 20_000)
	if res.Succeeded {
		t.Errorf("STBPU allowed a same-address-space alias collision in %d trials", res.Trials)
	}
}

func TestSpectreV2BaselineInjects(t *testing.T) {
	res := SpectreV2(NewBaselineTarget(), 10)
	if !res.Succeeded || res.Trials != 1 {
		t.Errorf("baseline Spectre v2 should inject on trial 1: %+v", res)
	}
}

func TestSpectreV2STBPUStalled(t *testing.T) {
	res := SpectreV2(NewSTBPUTarget(nil), 20_000)
	if res.Succeeded {
		t.Errorf("STBPU victim speculated into the gadget after %d trials (Ω=2^32 should make this ~impossible)", res.Trials)
	}
}

func TestSpectreRSBBaselineInjects(t *testing.T) {
	res := SpectreRSB(NewBaselineTarget(), 10)
	if !res.Succeeded || res.Trials != 1 {
		t.Errorf("baseline SpectreRSB should inject on trial 1: %+v", res)
	}
}

func TestSpectreRSBSTBPUStalled(t *testing.T) {
	res := SpectreRSB(NewSTBPUTarget(nil), 20_000)
	if res.Succeeded {
		t.Errorf("STBPU return speculation reached the gadget after %d trials", res.Trials)
	}
}

func TestGEMWorksOnDeterministicMapping(t *testing.T) {
	// Validate the GEM implementation itself: on the baseline's
	// deterministic mapping it must reduce a pool to a true eviction set
	// of about `ways` members, all in the probe's set.
	target := NewBaselineTarget()
	pool := make([]uint64, 4096)
	for i := range pool {
		pool[i] = attackerBase + uint64(i)*32
	}
	probe := attackerBase + 0x7fff000
	var res Result
	set := BuildEvictionSetGEM(target, probe, pool, 8, &res)
	if set == nil {
		t.Fatal("GEM found no eviction set on the baseline")
	}
	if len(set) > 12 {
		t.Errorf("GEM set size %d, want ≈8", len(set))
	}
	m := bpu.LegacyMapper{}
	wantSet, _, _ := m.BTBIndex(probe)
	same := 0
	for _, pc := range set {
		if s, _, _ := m.BTBIndex(pc); s == wantSet {
			same++
		}
	}
	if same < 8 {
		t.Errorf("only %d/%d GEM members share the probe's set", same, len(set))
	}
}

func TestGEMWorksOnStaticRandomizedMapping(t *testing.T) {
	// The Qureshi/Purnal insight the paper leans on: randomization alone
	// (STBPU with monitors disabled) does NOT stop GEM — the mapping is
	// random but static, so group elimination still converges.
	disabled := token.Thresholds{}
	target := NewSTBPUTarget(&disabled)
	pool := make([]uint64, 8192)
	for i := range pool {
		pool[i] = attackerBase + uint64(i)*32
	}
	probe := attackerBase + 0x7fff000
	var res Result
	set := BuildEvictionSetGEM(target, probe, pool, 8, &res)
	if set == nil {
		t.Skip("pool did not evict probe under this token (unlucky draw)")
	}
	if len(set) > 24 {
		t.Errorf("GEM failed to reduce on static randomized mapping: %d members", len(set))
	}
}

func TestGEMDefeatedByRerandomization(t *testing.T) {
	// With the monitors on, the eviction budget (Γ_e = 26,500 at r=0.05)
	// is spent long before GEM converges; re-randomization invalidates
	// partial progress and the returned set (if any) is not a stable
	// eviction set.
	target := NewSTBPUTarget(nil)
	pool := make([]uint64, 8192)
	for i := range pool {
		pool[i] = attackerBase + uint64(i)*32
	}
	probe := attackerBase + 0x7fff000
	var res Result
	set := BuildEvictionSetGEM(target, probe, pool, 8, &res)
	if target.Rerandomizations() == 0 {
		t.Fatal("GEM ran without tripping the eviction threshold")
	}
	// The full attack needs ~I/2 primed sets (§VI-A.4). One set already
	// costs a sizeable slice of the eviction budget, so covering 256 sets
	// guarantees many re-randomizations — each wiping every set built so
	// far. Check the cost arithmetic actually enforces that.
	th := token.Derive(token.DefaultR)
	if res.Evictions*256 < 4*th.Evictions {
		t.Errorf("one GEM set cost only %d evictions; the threshold would never trip over a full attack", res.Evictions)
	}
	if set != nil {
		// Direct invalidation check: after the attacker's next
		// re-randomization the set loses its discrimination against a
		// random control set of the same size.
		key := core.EntityKey(jmp(probe, probe+0x40, AttackerPID), false)
		target.Model.(*core.Model).TokenManager().Rerandomize(key)
		// Force the model to reload the (new) token.
		target.step(jmp(victimBase, victimBase+0x40, VictimPID))

		control := make([]uint64, len(set))
		for i := range control {
			control[i] = attackerBase + 0x40_0000 + uint64(i)*4096
		}
		var verify Result
		gemEv, ctlEv := 0, 0
		for i := 0; i < 6; i++ {
			if evictionTest(target, probe, set, &verify) {
				gemEv++
			}
			if evictionTest(target, probe, control, &verify) {
				ctlEv++
			}
		}
		if gemEv-ctlEv >= 4 {
			t.Errorf("GEM set survived re-randomization (%d vs control %d)", gemEv, ctlEv)
		}
	}
}

func TestEvictionSetAttackBaseline(t *testing.T) {
	res := EvictionSetAttack(NewBaselineTarget(), 0)
	if !res.Succeeded {
		t.Errorf("baseline eviction side channel should detect the victim: %+v", res)
	}
}

func TestRSBOverflowBothModels(t *testing.T) {
	// RSB overflow is a capacity attack: STBPU cannot eliminate it (the
	// RSB stays shared, §VI-A.6) but the poisoned entries decrypt to
	// garbage rather than attacker-chosen addresses.
	base := RSBOverflowDoS(NewBaselineTarget(), 32)
	if !base.Succeeded {
		t.Error("baseline RSB overflow should force victim mispredictions")
	}
	st := RSBOverflowDoS(NewSTBPUTarget(nil), 32)
	if !st.Succeeded {
		t.Error("STBPU cannot prevent capacity-based RSB overflow (expected mispredictions)")
	}
}

func TestDoSBaselineTargetedVsSTBPUBlind(t *testing.T) {
	base := DoSEviction(NewBaselineTarget(), 50, 16)
	if !base.Succeeded {
		t.Error("baseline targeted DoS should chronically evict the victim")
	}
	st := DoSEviction(NewSTBPUTarget(nil), 50, 16)
	if st.Succeeded {
		t.Error("STBPU blind spray should not reliably evict the victim's entry")
	}
}

func TestAttackResultsCarryEventCounts(t *testing.T) {
	res := BTBReuseSideChannel(NewSTBPUTarget(nil), 5_000)
	if res.AttackerMispredicts == 0 {
		t.Error("probing must generate monitored mispredictions")
	}
	if res.Evictions == 0 {
		t.Error("probing must generate monitored evictions")
	}
}
