package defenses

import (
	"testing"
	"testing/quick"

	"stbpu/internal/bpu"
	"stbpu/internal/trace"
)

func condAt(pc uint64, taken bool, pid uint32, kernel bool) trace.Record {
	rec := trace.Record{PC: pc & trace.VAMask, Kind: trace.KindCond, Taken: taken, PID: pid, Kernel: kernel}
	if taken {
		rec.Target = (pc + 0x40) & trace.VAMask
	} else {
		rec.Target = rec.FallThrough()
	}
	return rec
}

func jmpAt(pc, target uint64, pid uint32) trace.Record {
	return trace.Record{PC: pc & trace.VAMask, Target: target & trace.VAMask,
		Kind: trace.KindDirectJump, Taken: true, PID: pid}
}

func ijmpAt(pc, target uint64, pid uint32) trace.Record {
	return trace.Record{PC: pc & trace.VAMask, Target: target & trace.VAMask,
		Kind: trace.KindIndirectJump, Taken: true, PID: pid}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindBRB:    "BRB",
		KindBSUP:   "BSUP",
		KindZhao:   "Zhao-DAC21",
		KindExynos: "Exynos-XOR",
		Kind(99):   "Kind(99)",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, s)
		}
	}
}

func TestNewBuildsEveryKind(t *testing.T) {
	for _, k := range Kinds() {
		m := New(k, Options{})
		if m.Name() != k.String() {
			t.Errorf("New(%v).Name() = %q, want %q", k, m.Name(), k.String())
		}
		// Every model must survive a mixed stream without panicking.
		for i := 0; i < 100; i++ {
			rec := condAt(0x40_0000+uint64(i)*4, i%3 == 0, uint32(1+i%2), i%7 == 0)
			m.Step(rec)
		}
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with unknown kind did not panic")
		}
	}()
	New(Kind(42), Options{})
}

func TestSwitchDetector(t *testing.T) {
	var d switchDetector
	if _, sw := d.observe(condAt(0, true, 1, false)); sw {
		t.Error("first observation reported a switch")
	}
	if _, sw := d.observe(condAt(0, true, 1, false)); sw {
		t.Error("same entity reported a switch")
	}
	prev, sw := d.observe(condAt(0, true, 2, false))
	if !sw {
		t.Error("PID change not reported as a switch")
	}
	if prev != entityKey(condAt(0, true, 1, false)) {
		t.Errorf("previous key = %#x, want key of PID 1", prev)
	}
	if _, sw := d.observe(condAt(0, true, 2, true)); !sw {
		t.Error("mode switch (kernel entry) not reported as a switch")
	}
	if d.Current() != entityKey(condAt(0, true, 2, true)) {
		t.Error("Current() does not track the live entity")
	}
}

func TestEntityKeySeparatesKernel(t *testing.T) {
	user := entityKey(trace.Record{PID: 7})
	kern := entityKey(trace.Record{PID: 7, Kernel: true})
	if user == kern {
		t.Error("kernel mode does not separate the entity key")
	}
}

// --- BRB -------------------------------------------------------------------

func TestBRBRetainsDirectionStateAcrossSwitches(t *testing.T) {
	b := NewBRB(Options{})
	pc := uint64(0x40_1000)

	// Process 1 trains a strongly-taken branch.
	for i := 0; i < 8; i++ {
		b.Step(condAt(pc, true, 1, false))
	}
	// Process 2 runs long enough to perturb a cold predictor.
	for i := 0; i < 64; i++ {
		b.Step(condAt(pc+uint64(i)*4, false, 2, false))
	}
	// Back to process 1: its first prediction must still be taken —
	// retained, not flushed.
	pred, ev := b.Step(condAt(pc, true, 1, false))
	if !pred.Taken {
		t.Error("BRB lost retained direction state after a context switch")
	}
	if !ev.DirCorrect() {
		t.Error("retained state did not predict correctly")
	}
	if b.Saves == 0 || b.Restores == 0 {
		t.Errorf("retention traffic not accounted: saves=%d restores=%d", b.Saves, b.Restores)
	}
}

func TestBRBColdRestoreForNewProcess(t *testing.T) {
	b := NewBRB(Options{})
	pc := uint64(0x40_2000)
	for i := 0; i < 8; i++ {
		b.Step(condAt(pc, true, 1, false))
	}
	// A brand-new process must see a cold predictor at the same address:
	// per-process isolation of the directional state.
	pred, _ := b.Step(condAt(pc, true, 9, false))
	if pred.Taken {
		t.Error("new process observed another process's trained counter")
	}
	if b.ColdRestores == 0 {
		t.Error("cold restore not accounted")
	}
}

func TestBRBLRUEviction(t *testing.T) {
	b := NewBRB(Options{RetentionSlots: 2})
	pc := uint64(0x40_3000)

	// Train process 1, then cycle through enough processes to evict it.
	for i := 0; i < 8; i++ {
		b.Step(condAt(pc, true, 1, false))
	}
	for pid := uint32(2); pid <= 4; pid++ {
		for i := 0; i < 4; i++ {
			b.Step(condAt(pc+uint64(pid)*0x100, false, pid, false))
		}
	}
	if b.RetainedEntities() > 2 {
		t.Errorf("retention buffer holds %d entities, capacity 2", b.RetainedEntities())
	}
	if b.Discards == 0 {
		t.Error("LRU eviction not accounted")
	}
	// Process 1's slot was discarded: it must come back cold.
	pred, _ := b.Step(condAt(pc, true, 1, false))
	if pred.Taken {
		t.Error("discarded slot still produced a trained prediction")
	}
}

func TestBRBDoesNotProtectBTB(t *testing.T) {
	// The retention buffer covers only the directional predictor: a BTB
	// entry placed by process 1 is visible to process 2 at an aliasing
	// address (deterministic legacy mapping). This is the documented gap.
	b := NewBRB(Options{})
	vPC, vTgt := uint64(0x40_4000), uint64(0x40_4800)
	for i := 0; i < 4; i++ {
		b.Step(jmpAt(vPC, vTgt, 1))
	}
	pred, _ := b.Step(jmpAt(vPC, vPC+0x40, 2))
	if !pred.TargetValid || uint32(pred.Target) != uint32(vTgt) {
		t.Error("expected cross-process BTB reuse on BRB (it protects only the PHT)")
	}
}

// --- BSUP ------------------------------------------------------------------

func TestBSUPIsolatesProcessesByKey(t *testing.T) {
	b := NewBSUP(Options{Seed: 7})
	vPC, vTgt := uint64(0x40_5000), uint64(0x40_5800)
	for i := 0; i < 4; i++ {
		b.Step(jmpAt(vPC, vTgt, 1))
	}
	// Process 2 probing the same virtual address must not see process
	// 1's entry (different level-one key → different index/tag).
	pred, _ := b.Step(jmpAt(vPC, vPC+0x40, 2))
	if pred.TargetValid && uint32(pred.Target) == uint32(vTgt) {
		t.Error("BSUP leaked a BTB entry across differently-keyed processes")
	}
}

func TestBSUPRetainsOwnHistoryAcrossSwitches(t *testing.T) {
	b := NewBSUP(Options{Seed: 7})
	vPC, vTgt := uint64(0x40_6000), uint64(0x40_6800)
	for i := 0; i < 4; i++ {
		b.Step(jmpAt(vPC, vTgt, 1))
	}
	b.Step(jmpAt(vPC+0x100, vPC+0x140, 2)) // context switch away
	// Process 1's key is restored on switch-back; its entry is reachable
	// again (within the key lifetime).
	pred, _ := b.Step(jmpAt(vPC, vTgt, 1))
	if !pred.TargetValid || uint32(pred.Target) != uint32(vTgt) {
		t.Error("BSUP lost own history across a context switch within the key lifetime")
	}
	if b.CtxRestores == 0 {
		t.Error("context key restores not accounted")
	}
}

func TestBSUPLifetimeRekeyInvalidatesHistory(t *testing.T) {
	b := NewBSUP(Options{Seed: 7, KeyLifetime: 32})
	vPC, vTgt := uint64(0x40_7000), uint64(0x40_7800)
	for i := 0; i < 4; i++ {
		b.Step(jmpAt(vPC, vTgt, 1))
	}
	// Burn through the key lifetime within the same process.
	for i := 0; i < 40; i++ {
		b.Step(condAt(vPC+0x1000+uint64(i)*4, false, 1, false))
	}
	if b.Rekeys == 0 {
		t.Fatal("key lifetime expiry did not re-key")
	}
	pred, _ := b.Step(jmpAt(vPC, vTgt, 1))
	if pred.TargetValid && uint32(pred.Target) == uint32(vTgt) {
		t.Error("entry still reachable after a lifetime re-key")
	}
}

func TestBSUPSMTSharedKeyRemovesIsolation(t *testing.T) {
	b := NewBSUP(Options{Seed: 7})
	b.SetSMTShared(true)
	vPC, vTgt := uint64(0x40_8000), uint64(0x40_8800)
	for i := 0; i < 4; i++ {
		b.Step(jmpAt(vPC, vTgt, 1))
	}
	// With one key register shared by both hardware threads, thread 2
	// resolves the same index/tag and reuses thread 1's entry: the §VIII
	// SMT limitation.
	pred, _ := b.Step(jmpAt(vPC, vPC+0x40, 2))
	if !pred.TargetValid || uint32(pred.Target) != uint32(vTgt) {
		t.Error("expected cross-thread reuse under the shared SMT key")
	}
}

// --- Zhao ------------------------------------------------------------------

func TestZhaoIsolatesAcrossSwitches(t *testing.T) {
	z := NewZhao(Options{Seed: 11})
	vPC, vTgt := uint64(0x40_9000), uint64(0x40_9800)
	for i := 0; i < 4; i++ {
		z.Step(jmpAt(vPC, vTgt, 1))
	}
	pred, _ := z.Step(jmpAt(vPC, vPC+0x40, 2))
	if pred.TargetValid && uint32(pred.Target) == uint32(vTgt) {
		t.Error("Zhao leaked a BTB entry across a mask regeneration")
	}
	if z.Regens < 2 { // one at construction, one at the switch
		t.Errorf("Regens = %d, want >= 2", z.Regens)
	}
}

func TestZhaoLosesOwnHistoryAcrossSwitches(t *testing.T) {
	// The §VIII criticism: masks are re-generated, not per-entity
	// restored, so switching away and back destroys own history.
	z := NewZhao(Options{Seed: 11})
	vPC, vTgt := uint64(0x40_a000), uint64(0x40_a800)
	for i := 0; i < 4; i++ {
		z.Step(jmpAt(vPC, vTgt, 1))
	}
	z.Step(jmpAt(vPC+0x100, vPC+0x140, 2))
	pred, _ := z.Step(jmpAt(vPC, vTgt, 1))
	if pred.TargetValid && uint32(pred.Target) == uint32(vTgt) {
		t.Error("Zhao retained history across a switch; the design regenerates masks")
	}
}

func TestZhaoXORMaskingIsLinear(t *testing.T) {
	// For any mask, two addresses that collide under the legacy fold
	// still collide under the masked fold: XOR masking cannot separate
	// same-address-space aliases. This is the executable form of the
	// linearity argument.
	legacy := bpu.LegacyMapper{}
	check := func(pcLow uint32, aliasBits uint16, mask uint64) bool {
		pc := uint64(pcLow) | 0x40_0000
		alias := pc + uint64(aliasBits)<<32 // same low 32 bits
		s1, t1, o1 := legacy.BTBIndex(pc)
		s2, t2, o2 := legacy.BTBIndex(alias)
		if s1 != s2 || t1 != t2 || o1 != o2 {
			return true // not a legacy collision; nothing to check
		}
		m := &zhaoMask{idxMask: mask & trace.VAMask}
		ms1, mt1, mo1 := m.BTBIndex(pc)
		ms2, mt2, mo2 := m.BTBIndex(alias)
		return ms1 == ms2 && mt1 == mt2 && mo1 == mo2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestZhaoContentMaskRoundTrip(t *testing.T) {
	check := func(target uint32, mask uint32) bool {
		m := &zhaoMask{contentMask: mask}
		return m.DecryptTarget(m.EncryptTarget(target)) == target
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// --- Exynos ----------------------------------------------------------------

func TestExynosKeyIsDeterministicPerEntity(t *testing.T) {
	e := NewExynos(Options{Seed: 13})
	k1 := e.deriveKey(entityKey(trace.Record{PID: 1}))
	k2 := e.deriveKey(entityKey(trace.Record{PID: 2}))
	if k1 == k2 {
		t.Error("distinct entities derived the same key")
	}
	if k1 != e.deriveKey(entityKey(trace.Record{PID: 1})) {
		t.Error("key derivation is not deterministic")
	}
}

func TestExynosMachinesDeriveDifferentKeys(t *testing.T) {
	a := NewExynos(Options{Seed: 13})
	b := NewExynos(Options{Seed: 14})
	if a.deriveKey(1) == b.deriveKey(1) {
		t.Error("different machine secrets derived the same process key")
	}
}

func TestExynosEncryptsIndirectTargetsOnly(t *testing.T) {
	e := NewExynos(Options{Seed: 13})
	vPC, vTgt := uint64(0x40_b000), uint64(0x40_b800)

	// Indirect branch target is protected: another process reading the
	// same entry decrypts with its own key and sees garbage.
	for i := 0; i < 4; i++ {
		e.Step(ijmpAt(vPC, vTgt, 1))
	}
	pred, _ := e.Step(ijmpAt(vPC, vPC+0x40, 2))
	if pred.TargetValid && uint32(pred.Target) == uint32(vTgt) {
		t.Error("Exynos leaked an indirect target across processes")
	}

	// Direct branch target is stored in the clear: cross-process reuse
	// still works (the documented gap).
	dPC, dTgt := uint64(0x40_c000), uint64(0x40_c800)
	for i := 0; i < 4; i++ {
		e.Step(jmpAt(dPC, dTgt, 1))
	}
	pred, _ = e.Step(jmpAt(dPC, dPC+0x40, 2))
	if !pred.TargetValid || uint32(pred.Target) != uint32(dTgt) {
		t.Error("expected cross-process reuse of a direct-branch entry on Exynos")
	}
}

func TestExynosDoesNotProtectPHT(t *testing.T) {
	e := NewExynos(Options{Seed: 13})
	pc := uint64(0x40_d000)
	for i := 0; i < 8; i++ {
		e.Step(condAt(pc, true, 1, false))
	}
	pred, _ := e.Step(condAt(pc, true, 2, false))
	if !pred.Taken {
		t.Error("expected the attacker to observe the victim's trained PHT counter on Exynos")
	}
}

// --- cross-model accuracy sanity -------------------------------------------

func TestDefensesPredictWellSingleProcess(t *testing.T) {
	// Every defense must still be a functioning predictor: a strongly
	// biased branch within one process should reach high accuracy.
	for _, k := range Kinds() {
		m := New(k, Options{})
		pc := uint64(0x41_0000)
		correct := 0
		const n = 200
		for i := 0; i < n; i++ {
			_, ev := m.Step(condAt(pc, true, 1, false))
			if ev.DirCorrect() {
				correct++
			}
		}
		if correct < n*9/10 {
			t.Errorf("%v: only %d/%d correct on a trivially biased branch", k, correct, n)
		}
	}
}
