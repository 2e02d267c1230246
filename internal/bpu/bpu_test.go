package bpu

import (
	"fmt"
	"testing"
	"testing/quick"

	"stbpu/internal/rng"
	"stbpu/internal/trace"
)

func TestHistoryGHR(t *testing.T) {
	var h History
	h.PushOutcome(true)
	h.PushOutcome(false)
	h.PushOutcome(true)
	if h.GHR != 0b101 {
		t.Errorf("GHR = %b, want 101", h.GHR)
	}
	for i := 0; i < 100; i++ {
		h.PushOutcome(true)
	}
	if h.GHR >= 1<<GHRBits {
		t.Errorf("GHR exceeded width: %#x", h.GHR)
	}
}

func TestHistoryBHB(t *testing.T) {
	var h History
	h.PushBranch(0x401000, 0x402000)
	if h.BHB == 0 {
		t.Error("BHB did not change")
	}
	if h.BHB >= 1<<BHBBits {
		t.Errorf("BHB exceeded width: %#x", h.BHB)
	}
	prev := h.BHB
	h.PushBranch(0x401000, 0x402000)
	if h.BHB == prev {
		t.Error("BHB must mix with prior state")
	}
	h.Reset()
	if h.GHR != 0 || h.BHB != 0 {
		t.Error("Reset did not clear history")
	}
}

func TestBHBDistinguishesPaths(t *testing.T) {
	// Different branch sequences must yield different BHB values — the
	// property that lets mode-two store context-dependent targets.
	var a, b History
	a.PushBranch(0x1000, 0x2000)
	a.PushBranch(0x3000, 0x4000)
	b.PushBranch(0x3000, 0x4000)
	b.PushBranch(0x1000, 0x2000)
	if a.BHB == b.BHB {
		t.Error("BHB ignores branch order")
	}
}

func TestLegacyMapperTruncation(t *testing.T) {
	// The baseline only uses the low 32 address bits: two branches 2^32
	// apart collide completely — the aliasing Table I attacks exploit.
	m := LegacyMapper{}
	pc := uint64(0x00007f0012345678)
	alias := pc + (1 << 32)
	s1, t1, o1 := m.BTBIndex(pc)
	s2, t2, o2 := m.BTBIndex(alias)
	if s1 != s2 || t1 != t2 || o1 != o2 {
		t.Error("legacy mapper should collide on 2^32 aliases")
	}
	if i1, i2 := m.PHT1(pc), m.PHT1(alias); i1 != i2 {
		t.Errorf("PHT1 should collide: %d vs %d", i1, i2)
	}
}

func TestLegacyMapperRanges(t *testing.T) {
	m := LegacyMapper{}
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		pc := r.Uint64() & trace.VAMask
		set, tag, offs := m.BTBIndex(pc)
		if set >= BTBSets || tag >= 1<<BTBTagBits || offs >= 1<<BTBOffsetBits {
			t.Fatalf("BTBIndex out of range: %d %d %d", set, tag, offs)
		}
		if m.PHT1(pc) >= PHTSize || m.PHT2(pc, r.Uint64()) >= PHTSize {
			t.Fatal("PHT index out of range")
		}
		if m.BTBTagBHB(r.Uint64()) >= 1<<BTBTagBits {
			t.Fatal("BHB tag out of range")
		}
	}
}

func TestReconstructTarget(t *testing.T) {
	pc := uint64(0x00007f0012345678)
	target := uint64(0x00007f00aabbccdd)
	if got := ReconstructTarget(pc, uint32(target)); got != target {
		t.Errorf("ReconstructTarget = %#x, want %#x", got, target)
	}
	// Targets in a different 4GiB region reconstruct incorrectly — a real
	// limitation of the 32-bit entry the paper models (function 5).
	far := uint64(0x00007f1200000000)
	if got := ReconstructTarget(pc, uint32(far)); got == far {
		t.Error("cross-4GiB target should not reconstruct")
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(BaselineBTBConfig())
	if b.Insert(5, 10, 3, 0x1000, 0xdeadbeef) {
		t.Error("insert into empty set reported eviction")
	}
	got, hit := b.Lookup(5, 10, 3, 0x1000)
	if !hit || got != 0xdeadbeef {
		t.Fatalf("Lookup = %#x,%v", got, hit)
	}
	// Different offset must miss.
	if _, hit := b.Lookup(5, 10, 4, 0x1000); hit {
		t.Error("offset mismatch should miss")
	}
	// Overwrite in place.
	if b.Insert(5, 10, 3, 0x1000, 0xcafe) {
		t.Error("overwrite reported eviction")
	}
	if got, _ := b.Lookup(5, 10, 3, 0x1000); got != 0xcafe {
		t.Errorf("overwrite lost: %#x", got)
	}
}

func TestBTBEvictionLRU(t *testing.T) {
	b := NewBTB(BTBConfig{Sets: 4, Ways: 2})
	b.Insert(1, 1, 0, 0, 100)
	b.Insert(1, 2, 0, 0, 200)
	// Touch tag 1 so tag 2 is LRU.
	b.Lookup(1, 1, 0, 0)
	if !b.Insert(1, 3, 0, 0, 300) {
		t.Error("full-set insert should evict")
	}
	if b.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", b.Evictions)
	}
	if _, hit := b.Lookup(1, 2, 0, 0); hit {
		t.Error("LRU entry (tag 2) should have been evicted")
	}
	if _, hit := b.Lookup(1, 1, 0, 0); !hit {
		t.Error("MRU entry (tag 1) should survive")
	}
	b.ResetCounters()
	if b.Evictions != 0 {
		t.Error("ResetCounters failed")
	}
}

func TestBTBFullTags(t *testing.T) {
	b := NewBTB(ConservativeBTBConfig())
	pc := uint64(0x00007f0012345678)
	alias := pc + (1 << 32)
	// Same compressed fields, different full PC.
	b.Insert(9, 7, 1, pc, 111)
	if _, hit := b.Lookup(9, 7, 1, alias); hit {
		t.Error("full-tag BTB must reject aliased PC")
	}
	if _, hit := b.Lookup(9, 7, 1, pc); !hit {
		t.Error("full-tag BTB must hit exact PC")
	}
}

func TestBTBFlushAndOccupancy(t *testing.T) {
	b := NewBTB(BTBConfig{Sets: 8, Ways: 2})
	for i := uint32(0); i < 8; i++ {
		b.Insert(i, i, 0, 0, i)
	}
	if got := b.Occupancy(); got != 8 {
		t.Errorf("Occupancy = %d, want 8", got)
	}
	b.Flush()
	if got := b.Occupancy(); got != 0 {
		t.Errorf("Occupancy after flush = %d", got)
	}
}

func TestBTBSetWrap(t *testing.T) {
	b := NewBTB(BTBConfig{Sets: 4, Ways: 1})
	b.Insert(7, 1, 0, 0, 42) // set 7 wraps to 3
	if got, hit := b.Lookup(3, 1, 0, 0); !hit || got != 42 {
		t.Error("set index should wrap modulo set count")
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	f()
}

func TestBTBPanicsOnBadGeometry(t *testing.T) {
	for _, cfg := range []BTBConfig{
		{Sets: 0, Ways: 1}, {Sets: -4, Ways: 1}, {Sets: 4, Ways: 0},
		{Sets: 3, Ways: 1}, {Sets: 6, Ways: 8}, {Sets: BTBSets - 1, Ways: BTBWays},
	} {
		mustPanic(t, fmt.Sprintf("NewBTB(%+v)", cfg), func() { NewBTB(cfg) })
	}
}

func TestPHTPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, -8, 3, 6, 12, PHTSize - 1, PHTSize + PHTSize/2} {
		mustPanic(t, fmt.Sprintf("NewPHT(%d)", n), func() { NewPHT(n) })
	}
}

func TestPHTSaturation(t *testing.T) {
	p := NewPHT(16)
	if p.Predict(3) {
		t.Error("initial state should predict not-taken")
	}
	for i := 0; i < 10; i++ {
		p.Update(3, true)
	}
	if !p.Predict(3) || p.Counter(3) != 3 {
		t.Error("counter did not saturate taken")
	}
	p.Update(3, false)
	if !p.Predict(3) {
		t.Error("one not-taken should not flip a saturated counter")
	}
	p.Update(3, false)
	if p.Predict(3) {
		t.Error("two not-taken should flip to not-taken")
	}
	for i := 0; i < 10; i++ {
		p.Update(3, false)
	}
	if p.Counter(3) != 0 {
		t.Error("counter did not saturate not-taken")
	}
	p.Flush()
	if p.Counter(3) != 1 {
		t.Error("flush should reset to weakly not-taken")
	}
}

// TestPHTIndexWraps pins mask indexing: Predict, Update and Counter at
// k + m·size all address counter k, as the modulo form did, checked
// against a reference table over random k, m and outcomes.
func TestPHTIndexWraps(t *testing.T) {
	for _, size := range []int{4, 8, 16, PHTSize} {
		p := NewPHT(size)
		ref := make([]uint8, size)
		for i := range ref {
			ref[i] = 1
		}
		r := rng.New(uint64(size))
		for i := 0; i < 5000; i++ {
			k := uint32(r.Intn(size))
			idx := k + r.Uint32()/uint32(size)*uint32(size)
			taken := r.Bool(0.5)
			p.Update(idx, taken)
			if c := ref[k]; taken && c < 3 {
				ref[k]++
			} else if !taken && c > 0 {
				ref[k]--
			}
			if p.Counter(idx) != ref[k] || p.Counter(k) != ref[k] || p.Predict(idx) != (ref[k] >= 2) {
				t.Fatalf("size %d: index %#x (counter %d) reads %d/%v, want %d", size, idx, k, p.Counter(idx), p.Predict(idx), ref[k])
			}
		}
	}
}

func TestRSBPushPop(t *testing.T) {
	r := NewRSB(4)
	r.Push(1)
	r.Push(2)
	if v, ok := r.Peek(); !ok || v != 2 {
		t.Errorf("Peek = %d,%v", v, ok)
	}
	if v, ok := r.Pop(); !ok || v != 2 {
		t.Errorf("Pop = %d,%v", v, ok)
	}
	if v, ok := r.Pop(); !ok || v != 1 {
		t.Errorf("Pop = %d,%v", v, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Error("underflow should report !ok")
	}
	if r.Underflows != 1 {
		t.Errorf("Underflows = %d", r.Underflows)
	}
}

func TestRSBOverflowWraps(t *testing.T) {
	r := NewRSB(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("Pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("Pop = %d, want 2", v)
	}
	if _, ok := r.Pop(); ok {
		t.Error("oldest entry should have been lost to overflow")
	}
}

func TestRSBLIFOProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		rsb := NewRSB(16)
		var model []uint32
		n := int(nRaw)%40 + 1
		for i := 0; i < n; i++ {
			if r.Bool(0.6) || len(model) == 0 {
				v := r.Uint32()
				rsb.Push(v)
				model = append(model, v)
				if len(model) > 16 {
					model = model[1:] // hardware loses the oldest
				}
			} else {
				v, ok := rsb.Pop()
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || v != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// moduloRSB is the return stack's ring arithmetic in modulo form: the
// reference the compare-wrapped RSB must match.
type moduloRSB struct {
	entries    []uint32
	top, depth int
}

func (r *moduloRSB) push(v uint32) {
	r.entries[r.top] = v
	r.top = (r.top + 1) % len(r.entries)
	if r.depth < len(r.entries) {
		r.depth++
	}
}

func (r *moduloRSB) pop() (uint32, bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return r.entries[r.top], true
}

func (r *moduloRSB) peek() (uint32, bool) {
	if r.depth == 0 {
		return 0, false
	}
	return r.entries[(r.top-1+len(r.entries))%len(r.entries)], true
}

func TestRSBWrapMatchesModuloReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5, RSBDepth} {
		rsb := NewRSB(capacity)
		ref := &moduloRSB{entries: make([]uint32, capacity)}
		r := rng.New(uint64(capacity))
		wraps := 0
		for i := 0; i < 40*capacity+200; i++ {
			prev := rsb.top
			if r.Bool(0.55) {
				v := r.Uint32()
				rsb.Push(v)
				ref.push(v)
			} else {
				gv, gok := rsb.Pop()
				wv, wok := ref.pop()
				if gv != wv || gok != wok {
					t.Fatalf("capacity %d op %d: Pop = %d,%v, reference %d,%v", capacity, i, gv, gok, wv, wok)
				}
			}
			if capacity > 1 && (rsb.top == 0 && prev == capacity-1 || rsb.top == capacity-1 && prev == 0) {
				wraps++
			}
			gv, gok := rsb.Peek()
			wv, wok := ref.peek()
			if gv != wv || gok != wok || rsb.top != ref.top || rsb.Depth() != ref.depth {
				t.Fatalf("capacity %d op %d: RSB (top %d depth %d peek %d,%v) != reference (top %d depth %d peek %d,%v)",
					capacity, i, rsb.top, rsb.Depth(), gv, gok, ref.top, ref.depth, wv, wok)
			}
		}
		if capacity > 1 && wraps < 3 {
			t.Errorf("capacity %d: only %d wraps exercised", capacity, wraps)
		}
	}
}

func TestSKLCondLearnsBias(t *testing.T) {
	s := NewSKLCond(LegacyMapper{})
	pc := uint64(0x401000)
	correct := 0
	for i := 0; i < 200; i++ {
		if s.Predict(pc) == true {
			correct++
		}
		s.Update(pc, true)
	}
	if correct < 190 {
		t.Errorf("biased branch: %d/200 correct", correct)
	}
}

func TestSKLCondLearnsPattern(t *testing.T) {
	// Alternating pattern: bimodal alone oscillates (~50%); the gshare
	// mode with chooser must learn it nearly perfectly.
	s := NewSKLCond(LegacyMapper{})
	pc := uint64(0x402000)
	correct := 0
	const n = 2000
	for i := 0; i < n; i++ {
		taken := i%2 == 0
		if s.Predict(pc) == taken {
			correct++
		}
		s.Update(pc, taken)
	}
	if float64(correct)/n < 0.9 {
		t.Errorf("alternating pattern: %d/%d correct, want >= 90%%", correct, n)
	}
}

func TestSKLCondFlush(t *testing.T) {
	s := NewSKLCond(LegacyMapper{})
	pc := uint64(0x403000)
	for i := 0; i < 100; i++ {
		s.Predict(pc)
		s.Update(pc, true)
	}
	s.Flush()
	if s.Predict(pc) {
		t.Error("flushed predictor should fall back to default not-taken")
	}
}

// runTrace drives a Unit over records and returns (mispredicts, total).
func runTrace(u *Unit, recs []trace.Record) (misp, total int) {
	for _, rec := range recs {
		pred := u.Predict(rec.PC, rec.Kind)
		ev := u.Update(rec, pred)
		if ev.Mispredict() {
			misp++
		}
		total++
	}
	return misp, total
}

func TestUnitDirectJumpLearned(t *testing.T) {
	u := NewUnit(UnitConfig{})
	rec := trace.Record{PC: 0x401000, Target: 0x401800, Kind: trace.KindDirectJump, Taken: true}
	// First encounter misses BTB; afterwards the target is cached.
	pred := u.Predict(rec.PC, rec.Kind)
	if pred.TargetValid {
		t.Error("cold BTB should miss")
	}
	u.Update(rec, pred)
	pred = u.Predict(rec.PC, rec.Kind)
	if !pred.TargetValid || pred.Target != rec.Target {
		t.Errorf("warm BTB prediction = %+v", pred)
	}
}

func TestUnitReturnViaRSB(t *testing.T) {
	u := NewUnit(UnitConfig{})
	call := trace.Record{PC: 0x401000, Target: 0x405000, Kind: trace.KindDirectCall, Taken: true}
	u.Update(call, u.Predict(call.PC, call.Kind))
	ret := trace.Record{PC: 0x40503c, Target: call.FallThrough(), Kind: trace.KindReturn, Taken: true}
	pred := u.Predict(ret.PC, ret.Kind)
	if !pred.FromRSB || !pred.TargetValid || pred.Target != ret.Target {
		t.Errorf("return prediction = %+v, want RSB hit to %#x", pred, ret.Target)
	}
}

func TestUnitRSBUnderflowFallsBack(t *testing.T) {
	u := NewUnit(UnitConfig{})
	ret := trace.Record{PC: 0x40503c, Target: 0x401004, Kind: trace.KindReturn, Taken: true}
	pred := u.Predict(ret.PC, ret.Kind)
	if pred.FromRSB {
		t.Error("empty RSB cannot serve a return")
	}
	u.Update(ret, pred) // trains mode-two BTB
	if u.RSB().Underflows == 0 {
		t.Error("underflow not counted")
	}
	pred = u.Predict(ret.PC, ret.Kind)
	if !pred.TargetValid || !pred.FromMode2 {
		t.Errorf("underflow fallback should hit mode-two BTB: %+v", pred)
	}
}

func TestUnitIndirectContextTargets(t *testing.T) {
	// An indirect branch alternating targets based on preceding branch
	// context: mode-two (BHB-tagged) entries must learn both targets.
	u := NewUnit(UnitConfig{})
	lead1 := trace.Record{PC: 0x401000, Target: 0x401100, Kind: trace.KindDirectJump, Taken: true}
	lead2 := trace.Record{PC: 0x402000, Target: 0x402100, Kind: trace.KindDirectJump, Taken: true}
	ind := func(target uint64) trace.Record {
		return trace.Record{PC: 0x403000, Target: target, Kind: trace.KindIndirectJump, Taken: true}
	}
	correct := 0
	const rounds = 200
	for i := 0; i < rounds; i++ {
		var lead trace.Record
		var target uint64
		if i%2 == 0 {
			lead, target = lead1, 0x404000
		} else {
			lead, target = lead2, 0x405000
		}
		u.Update(lead, u.Predict(lead.PC, lead.Kind))
		rec := ind(target)
		pred := u.Predict(rec.PC, rec.Kind)
		if pred.TargetValid && pred.Target == target {
			correct++
		}
		u.Update(rec, pred)
	}
	if correct < rounds*3/4 {
		t.Errorf("context-dependent indirect: %d/%d correct", correct, rounds)
	}
}

func TestUnitConditionalAccuracy(t *testing.T) {
	u := NewUnit(UnitConfig{})
	recs := make([]trace.Record, 0, 4000)
	for i := 0; i < 2000; i++ {
		taken := true // strongly biased branch
		rec := trace.Record{PC: 0x401000, Kind: trace.KindCond, Taken: taken}
		if taken {
			rec.Target = 0x401040
		} else {
			rec.Target = rec.FallThrough()
		}
		recs = append(recs, rec)
	}
	misp, total := runTrace(u, recs)
	if rate := float64(misp) / float64(total); rate > 0.02 {
		t.Errorf("biased conditional mispredict rate %.3f", rate)
	}
}

func TestUnitFlush(t *testing.T) {
	u := NewUnit(UnitConfig{})
	rec := trace.Record{PC: 0x401000, Target: 0x401800, Kind: trace.KindDirectJump, Taken: true}
	u.Update(rec, u.Predict(rec.PC, rec.Kind))
	u.Flush()
	if pred := u.Predict(rec.PC, rec.Kind); pred.TargetValid {
		t.Error("flush left BTB state behind")
	}
	if u.HistoryRef().BHB != 0 {
		t.Error("flush left history behind")
	}
}

func TestUnitNotTakenCondIsNotMispredict(t *testing.T) {
	u := NewUnit(UnitConfig{})
	rec := trace.Record{PC: 0x401000, Kind: trace.KindCond, Taken: false}
	rec.Target = rec.FallThrough()
	// Predictor starts weakly not-taken: direction correct, no target
	// needed, so the branch must count as correctly predicted.
	pred := u.Predict(rec.PC, rec.Kind)
	ev := u.Update(rec, pred)
	if ev.Mispredict() {
		t.Errorf("not-taken conditional wrongly counted as mispredict: %07b", ev)
	}
}

func TestUnitEventAccounting(t *testing.T) {
	u := NewUnit(UnitConfig{})
	rec := trace.Record{PC: 0x401000, Target: 0x401800, Kind: trace.KindDirectJump, Taken: true}
	pred := u.Predict(rec.PC, rec.Kind)
	ev := u.Update(rec, pred)
	if !ev.Mispredict() || !ev.BTBMiss() || ev.TargetCorrect() {
		t.Errorf("cold unconditional events = %07b", ev)
	}
	pred = u.Predict(rec.PC, rec.Kind)
	ev = u.Update(rec, pred)
	if ev.Mispredict() || !ev.TargetCorrect() {
		t.Errorf("warm unconditional events = %07b", ev)
	}
}

// TestCountersNoteAllEvents checks the branch-free Note against the
// counting rule spelled out through the accessors, for every one of
// the 128 values the seven flags can take: DirCorrect counts only among
// conditional branches and TargetCorrect only among target-known ones,
// even for flag combinations Update never reports.
func TestCountersNoteAllEvents(t *testing.T) {
	if all := EvCond | EvDirCorrect | EvTargetKnown | EvTargetCorrect | EvMispredict | EvBTBEviction | EvBTBMiss; all != 1<<7-1 {
		t.Fatalf("the seven flags cover %07b, want the low seven bits each once", all)
	}
	for v := 0; v < 1<<7; v++ {
		ev := Events(v)
		var want Counters
		if ev.Mispredict() {
			want.Mispredicts++
		}
		if ev.IsCond() {
			want.Conds++
			if ev.DirCorrect() {
				want.DirCorrect++
			}
		}
		if ev.TargetKnown() {
			want.TargetKnown++
			if ev.TargetCorrect() {
				want.TargetCorrect++
			}
		}
		if ev.BTBEviction() {
			want.Evictions++
		}
		if ev.BTBMiss() {
			want.BTBMisses++
		}
		// Fold twice from a nonzero start, so an assignment where an
		// addition belongs shows too.
		got := Counters{Mispredicts: 5, Conds: 5, DirCorrect: 5, TargetKnown: 5, TargetCorrect: 5, Evictions: 5, BTBMisses: 5}
		got.Note(ev)
		got.Note(ev)
		want = Counters{
			Mispredicts: 5 + 2*want.Mispredicts, Conds: 5 + 2*want.Conds, DirCorrect: 5 + 2*want.DirCorrect,
			TargetKnown: 5 + 2*want.TargetKnown, TargetCorrect: 5 + 2*want.TargetCorrect,
			Evictions: 5 + 2*want.Evictions, BTBMisses: 5 + 2*want.BTBMisses,
		}
		if got != want {
			t.Errorf("Note(%07b) twice: got %+v, want %+v", ev, got, want)
		}
	}
}

func TestUnitOnSyntheticWorkload(t *testing.T) {
	p, err := trace.Preset("519.lbm")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(p.WithRecords(60_000))
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnit(UnitConfig{})
	misp, total := runTrace(u, tr.Records)
	acc := 1 - float64(misp)/float64(total)
	if acc < 0.85 {
		t.Errorf("baseline accuracy on lbm = %.3f, want >= 0.85", acc)
	}
}

func BenchmarkUnitPredictUpdate(b *testing.B) {
	p, err := trace.Preset("505.mcf")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(p.WithRecords(100_000))
	if err != nil {
		b.Fatal(err)
	}
	u := NewUnit(UnitConfig{})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := tr.Records[i%len(tr.Records)]
		u.Update(rec, u.Predict(rec.PC, rec.Kind))
	}
}

// BenchmarkUnitResolve is BenchmarkUnitPredictUpdate through the fused
// Resolve, the call every columnar replay loop makes per branch.
func BenchmarkUnitResolve(b *testing.B) {
	p, err := trace.Preset("505.mcf")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(p.WithRecords(100_000))
	if err != nil {
		b.Fatal(err)
	}
	u := NewUnit(UnitConfig{})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := tr.Records[i%len(tr.Records)]
		u.Resolve(rec.PC, rec.Target, rec.Kind, rec.Taken)
	}
}

// BenchmarkUnitFlush measures one IBPB-style barrier on the baseline
// unit, the price a flush-based protection model pays per context
// switch: BTB invalidation plus the PHT and chooser refill.
func BenchmarkUnitFlush(b *testing.B) {
	u := NewUnit(UnitConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.Flush()
	}
}
